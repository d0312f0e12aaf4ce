package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spgcnn"
)

// update regenerates the committed results/*.txt goldens after an
// intentional change:
//
//	go test ./cmd/spg-bench -run Golden -update
var update = flag.Bool("update", false, "rewrite the deterministic results/*.txt goldens")

// The committed numbers live at the repository root.
var (
	baselinesDir = filepath.Join("..", "..", "baselines")
	resultsDir   = filepath.Join("..", "..", "results")
)

func deterministic(kind string) bool { return kind == "analytical" || kind == "modeled" }

func runQuiet(t *testing.T, args ...string) error {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	if err != nil {
		t.Logf("stderr:\n%s", errb.String())
	}
	return err
}

func TestListPrintsKinds(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"table1", "goodput", "analytical", "measured"} {
		if !strings.Contains(s, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestJSONReportSchemaAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	if err := runQuiet(t, "-exp", "table1", "-json", "-out", dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_table1.json")
	rep, err := spgcnn.LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != spgcnn.BenchSchemaVersion || rep.Experiment != "table1" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.Kind != "analytical" || rep.Scale != "quick" || rep.Machine != "paper" {
		t.Fatalf("report fields wrong: kind=%q scale=%q machine=%q", rep.Kind, rep.Scale, rep.Machine)
	}
	if rep.Host.OS == "" || rep.Host.CPUs < 1 {
		t.Fatalf("host fingerprint missing: %+v", rep.Host)
	}
	if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
		t.Fatal("report has no data")
	}

	// An analytical experiment must regenerate byte-identical JSON.
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(t, "-exp", "table1", "-json", "-out", dir); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("regenerated BENCH_table1.json differs byte-for-byte")
	}
}

func TestBaselineCompare(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	if err := runQuiet(t, "-exp", "table1", "-json", "-out", baseDir); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(t, "-exp", "table1", "-json", "-out", curDir, "-baseline", baseDir); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}

	// Grossly perturb one baseline number: the strict analytical
	// comparison must fail.
	path := filepath.Join(baseDir, "BENCH_table1.json")
	rep, err := spgcnn.LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	rep.Tables[0].Rows[0][len(rep.Tables[0].Rows[0])-1] = "99999"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	err = runQuiet(t, "-exp", "table1", "-json", "-out", curDir, "-baseline", baseDir)
	if err == nil || !strings.Contains(err.Error(), "baseline comparison failed") {
		t.Fatalf("perturbed baseline accepted: %v", err)
	}
}

func TestBaselineRequiresJSON(t *testing.T) {
	if err := runQuiet(t, "-exp", "table1", "-baseline", "x"); err == nil {
		t.Fatal("-baseline without -json accepted")
	}
}

// TestCommittedBaselines regenerates every deterministic
// baselines/BENCH_<exp>.json at quick scale and holds it to the tolerance
// band. Measured baselines only compare structurally and run real
// training, so they get their own non-short test (TestGoodputJSONSmoke).
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(baselinesDir, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines under %s (%v)", baselinesDir, err)
	}
	for _, path := range paths {
		base, err := spgcnn.LoadBenchReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if !deterministic(base.Kind) {
			if base.Experiment != "goodput" {
				t.Errorf("%s: %s baseline has no structural test", path, base.Kind)
			}
			continue
		}
		if err := runQuiet(t, "-exp", base.Experiment, "-json", "-out", t.TempDir(),
			"-baseline", baselinesDir); err != nil {
			t.Errorf("%s: %v (regenerate with: go run ./cmd/spg-bench -exp %s -json -out baselines)",
				path, err, base.Experiment)
		}
	}
}

// TestResultsGolden regenerates every deterministic experiment's committed
// results/<id>.txt byte-for-byte. Every deterministic experiment must
// have one.
func TestResultsGolden(t *testing.T) {
	for _, e := range spgcnn.Experiments() {
		if !deterministic(e.Kind) {
			continue
		}
		golden := filepath.Join(resultsDir, e.ID+".txt")
		want, err := os.ReadFile(golden)
		if *update {
			if err := runQuiet(t, "-exp", e.ID, "-out", resultsDir); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Errorf("deterministic experiment %s has no committed golden (create it with -update): %v", e.ID, err)
			continue
		}
		dir := t.TempDir()
		if err := runQuiet(t, "-exp", e.ID, "-out", dir); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from its regeneration (rewrite with -update after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
				golden, got, want)
		}
	}
}

func TestGoodputJSONSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("goodput runs a real training loop")
	}
	dir := t.TempDir()
	if err := runQuiet(t, "-exp", "goodput", "-json", "-out", dir, "-workers", "2",
		"-baseline", baselinesDir); err != nil {
		t.Fatal(err)
	}
	rep, err := spgcnn.LoadBenchReport(filepath.Join(dir, "BENCH_goodput.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "measured" || len(rep.Tables) == 0 {
		t.Fatalf("goodput report malformed: kind=%q tables=%d", rep.Kind, len(rep.Tables))
	}
}
