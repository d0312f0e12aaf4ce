package bench

import (
	"strconv"
	"strings"
	"testing"

	"spgcnn/internal/stencil"
)

func quickOpts() Options { return Options{Scale: "quick", Workers: 2} }

func TestTableRenderAndCSV(t *testing.T) {
	tab := Table{Title: "T", Note: "n", Columns: []string{"a", "b"}}
	tab.AddRow("x", 1.2345)
	tab.AddRow("long,cell", 12345.0)
	out := tab.Render()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "1.23") {
		t.Fatalf("Render output:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"long,cell"`) {
		t.Fatalf("CSV quoting failed:\n%s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Fatalf("CSV has %d lines, want 3", lines)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{0: "0", 0.5: "0.50", 42.42: "42.4", 1234.5: "1234"}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup(nope) succeeded")
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

func TestScaledForHost(t *testing.T) {
	for _, row := range Table1() {
		scaled := ScaledForHost(row.Spec, 30e6)
		if scaled.FlopsFP() > 30e6 {
			t.Fatalf("ID %d not scaled under flop cap: %v (%d flops)", row.ID, scaled, scaled.FlopsFP())
		}
		if scaled.Nf != row.Spec.Nf || scaled.Fx != row.Spec.Fx || scaled.Sx != row.Spec.Sx {
			t.Fatalf("ID %d: scaling changed region-defining dims: %v", row.ID, scaled)
		}
		if scaled.Validate() != nil {
			t.Fatalf("scaled spec invalid: %v", scaled)
		}
	}
	small := Table1()[0].Spec
	if ScaledForHost(small, 1<<40) != small {
		t.Fatal("small spec should be unchanged")
	}
}

func TestAnalyticalExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"table1", "fig1", "fig2", "fig5", "fig6", "fig7",
		"fig3a", "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "table2"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tabs := e.Run(quickOpts())
		if len(tabs) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tab := range tabs {
			if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
				t.Fatalf("%s produced empty table %q", id, tab.Title)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s: row width %d != %d columns", id, len(row), len(tab.Columns))
				}
			}
		}
	}
}

func TestTable1RowsMatchPaperIDs(t *testing.T) {
	tabs := RunTable1(quickOpts())
	if len(tabs[0].Rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(tabs[0].Rows))
	}
	// Model intrinsic AIT (col 2) within 1 of paper value (col 3).
	for _, row := range tabs[0].Rows {
		model, err1 := strconv.ParseFloat(row[2], 64)
		paper, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable AIT cells %q %q", row[2], row[3])
		}
		if diff := model - paper; diff > 1.5 || diff < -1.5 {
			t.Fatalf("intrinsic AIT mismatch: model %v vs paper %v", model, paper)
		}
	}
}

func TestFig4bSpeedupsExceedOne(t *testing.T) {
	tabs := RunFig4b(quickOpts())
	for _, row := range tabs[0].Rows {
		// At p=16 (last column) GiP must beat Parallel-GEMM.
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1 {
			t.Fatalf("GiP speedup at 16 cores = %v for %s, want >= 1", v, row[0])
		}
	}
}

func TestFig4fMonotoneInSparsity(t *testing.T) {
	tabs := RunFig4f(quickOpts())
	for _, row := range tabs[0].Rows {
		prev := -1.0
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev {
				t.Fatalf("%s: speedup not monotone in sparsity: %v after %v", row[0], v, prev)
			}
			prev = v
		}
	}
}

func TestFig4MeasuredSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment")
	}
	tabs := RunFig4Measured(quickOpts())
	if len(tabs) != 3 {
		t.Fatalf("fig4-measured produced %d tables", len(tabs))
	}
	// Sparse BP at 99% sparsity (last Fig4f column) must beat dense BP for
	// every convolution — the core goodput claim, verified by execution.
	bp := tabs[2]
	for _, row := range bp.Rows {
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 1 {
			t.Fatalf("%s: measured sparse speedup at 99%% sparsity = %v, want > 1", row[0], v)
		}
	}
}

func TestFig3bSparsityHighAndMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tabs := RunFig3b(Options{Scale: "quick", Workers: 2})
	tab := tabs[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("fig3b rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Final epoch sparsity must be in the paper's regime (> 0.5; the
		// paper reports > 0.85 for its networks — ours include pooling
		// nets whose masks guarantee high sparsity).
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("unparsable sparsity %q", row[len(row)-1])
		}
		if v < 0.5 || v > 1 {
			t.Fatalf("%s: final-epoch sparsity = %v, want in (0.5, 1]", row[0], v)
		}
	}
}

func TestFig9ModelShape(t *testing.T) {
	tab := fig9Model(quickOpts().machineOf())
	if len(tab.Rows) != 5 {
		t.Fatalf("fig9 model rows = %d, want 5", len(tab.Rows))
	}
	parse := func(rowIdx, col int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[rowIdx][col], 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) unparsable: %q", rowIdx, col, tab.Rows[rowIdx][col])
		}
		return v
	}
	last := len(tab.Columns) - 1
	// At 32 cores, the full spg-CNN stack (row 4) beats both baselines
	// (rows 0, 1) by a large factor, and GiP+Sparse (row 3) beats plain
	// GiP (row 2).
	if parse(4, last) < 4*parse(0, last) {
		t.Fatalf("optimized %v not >> CAFFE baseline %v at 32 cores", parse(4, last), parse(0, last))
	}
	if parse(3, last) <= parse(2, last) {
		t.Fatal("adding the sparse kernel did not improve throughput")
	}
	if parse(4, last) <= parse(3, last) {
		t.Fatal("adding the stencil kernel did not improve throughput")
	}
	// The baselines stop scaling: their 32-core throughput is not much
	// above their 4-core throughput (paper: they stop scaling after 2).
	if parse(0, last) > 2*parse(0, 2) {
		t.Fatalf("CAFFE baseline kept scaling: p=2 col %v vs p=32 %v", parse(0, 2), parse(0, last))
	}
	// ADAM is slower than CAFFE at low core counts.
	if parse(1, 1) >= parse(0, 1) {
		t.Fatal("ADAM baseline should be slower than CAFFE at 1 core")
	}
}

func TestFig8ModelShape(t *testing.T) {
	tab := fig8Model(quickOpts().machineOf())
	if len(tab.Rows) != 12 {
		t.Fatalf("fig8 rows = %d, want 12 (Table 2 layers)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		gip, _ := strconv.ParseFloat(row[3], 64)
		best, _ := strconv.ParseFloat(row[4], 64)
		sparse, _ := strconv.ParseFloat(row[5], 64)
		if gip < 1 {
			t.Fatalf("%s %s: GiP FP speedup %v < 1", row[0], row[1], gip)
		}
		if best < gip {
			t.Fatalf("%s %s: best FP %v below GiP %v", row[0], row[1], best, gip)
		}
		if sparse < 1 {
			t.Fatalf("%s %s: sparse BP speedup %v < 1", row[0], row[1], sparse)
		}
	}
}

func TestAblationMachineShape(t *testing.T) {
	tabs := RunAblationMachine(quickOpts())
	if len(tabs) != 2 {
		t.Fatalf("ablation-machine produced %d tables", len(tabs))
	}
	// Every sensitivity cell keeps GiP ahead of Parallel-GEMM (>1).
	for _, row := range tabs[0].Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v <= 1 {
				t.Fatalf("sensitivity cell %v <= 1", v)
			}
		}
	}
	// The stencil crossover shrinks as the modeled load cost grows.
	prev := 1 << 30
	for _, row := range tabs[1].Rows {
		v, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		if v > prev {
			t.Fatalf("crossover grew with load cost: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestAblationSpatialSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment")
	}
	tabs := RunAblationSpatial(quickOpts())
	rows := tabs[0].Rows
	if len(rows) < 4 {
		t.Fatalf("spatial ablation rows = %d", len(rows))
	}
	// The stencil's relative advantage at the largest size must exceed its
	// advantage at the smallest (the cache-footprint effect).
	first, err1 := strconv.ParseFloat(rows[0][4], 64)
	last, err2 := strconv.ParseFloat(rows[len(rows)-1][4], 64)
	if err1 != nil || err2 != nil {
		t.Fatal("unparsable speedups")
	}
	if last <= first {
		t.Fatalf("stencil advantage did not grow with spatial extent: %v -> %v", first, last)
	}
}

func TestAblationRTileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment")
	}
	tabs := RunAblationRTile(quickOpts())
	for _, row := range tabs[0].Rows {
		for _, cell := range row[1 : 1+stencil.MaxRY] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad GFlops cell %q", cell)
			}
		}
	}
}

func TestAblationCTCSRSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured experiment")
	}
	tabs := RunAblationCTCSR(quickOpts())
	for _, row := range tabs[0].Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad time cell %q", cell)
			}
		}
	}
}

func TestFig9MeasuredSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tab := fig9Measured(Options{Scale: "quick", Workers: 2})
	if len(tab.Rows) != 4 {
		t.Fatalf("fig9 measured rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("%s: bad throughput %q", row[0], row[1])
		}
	}
}

// BenchmarkAnalyticalExperiments runs the full analytical experiment set
// (the paper's modeled tables/figures) per iteration, with allocations
// reported so regressions in the harness's memory behavior are visible.
func BenchmarkAnalyticalExperiments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"table1", "fig1", "fig3a", "fig4a", "fig4f", "table2"} {
			e, err := Lookup(id)
			if err != nil {
				b.Fatal(err)
			}
			if tabs := e.Run(quickOpts()); len(tabs) == 0 {
				b.Fatalf("%s produced no tables", e.ID)
			}
		}
	}
}
