package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport(kind string) Report {
	e := Experiment{ID: "x", Desc: "d", Kind: kind}
	tab := Table{Title: "T", Note: "n", Columns: []string{"label", "value"}}
	tab.AddRow("row0", 10.0)
	tab.AddRow("row1", 20.0)
	return NewReport(e, Options{Scale: "quick", Workers: 2, Machine: "paper"}, []Table{tab})
}

func TestReportRoundTripAndValidate(t *testing.T) {
	r := sampleReport(KindAnalytical)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "x" || got.Schema != SchemaVersion || got.Kind != KindAnalytical {
		t.Fatalf("round trip lost identity: %+v", got)
	}
	if len(got.Tables) != 1 || len(got.Tables[0].Rows) != 2 {
		t.Fatalf("round trip lost tables: %+v", got.Tables)
	}
	if got.Host.OS == "" || got.Host.CPUs < 1 {
		t.Fatalf("host fingerprint missing: %+v", got.Host)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Report){
		"wrong schema":     func(r *Report) { r.Schema = 99 },
		"empty experiment": func(r *Report) { r.Experiment = "" },
		"bad kind":         func(r *Report) { r.Kind = "vibes" },
		"bad scale":        func(r *Report) { r.Scale = "huge" },
		"ragged row":       func(r *Report) { r.Tables[0].Rows[0] = []string{"only-one"} },
		"no tables":        func(r *Report) { r.Tables = nil },
	}
	for name, mutate := range cases {
		r := sampleReport(KindAnalytical)
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid report", name)
		}
	}
}

func TestCompareDeterministicTolerance(t *testing.T) {
	base := sampleReport(KindAnalytical)
	cur := sampleReport(KindAnalytical)
	if err := Compare(&base, &cur, 0.05); err != nil {
		t.Fatalf("identical reports rejected: %v", err)
	}
	// Inside tolerance: 10 -> 10.4 is 4% relative.
	cur.Tables[0].Rows[0][1] = "10.4"
	if err := Compare(&base, &cur, 0.05); err != nil {
		t.Fatalf("in-band drift rejected: %v", err)
	}
	// Outside tolerance.
	cur.Tables[0].Rows[0][1] = "13"
	err := Compare(&base, &cur, 0.05)
	if err == nil || !strings.Contains(err.Error(), "tolerance") {
		t.Fatalf("out-of-band drift accepted: %v", err)
	}
}

func TestCompareMeasuredIsStructural(t *testing.T) {
	base := sampleReport(KindMeasured)
	cur := sampleReport(KindMeasured)
	// Wildly different magnitude is fine for measured experiments...
	cur.Tables[0].Rows[0][1] = "123456"
	if err := Compare(&base, &cur, 0.05); err != nil {
		t.Fatalf("measured magnitude drift rejected: %v", err)
	}
	// ...but sign flips, label changes and shape changes are not.
	cur.Tables[0].Rows[0][1] = "-1"
	if err := Compare(&base, &cur, 0.05); err == nil {
		t.Fatal("sign flip accepted")
	}
	cur = sampleReport(KindMeasured)
	cur.Tables[0].Rows[1][0] = "renamed"
	if err := Compare(&base, &cur, 0.05); err == nil {
		t.Fatal("row label change accepted")
	}
	cur = sampleReport(KindMeasured)
	cur.Tables[0].Rows = cur.Tables[0].Rows[:1]
	if err := Compare(&base, &cur, 0.05); err == nil {
		t.Fatal("row count change accepted")
	}
	cur = sampleReport(KindMeasured)
	cur.Tables[0].Columns = []string{"label", "other"}
	if err := Compare(&base, &cur, 0.05); err == nil {
		t.Fatal("column header change accepted")
	}
}

func TestCompareCrossIdentityRejected(t *testing.T) {
	base := sampleReport(KindAnalytical)
	cur := sampleReport(KindAnalytical)
	cur.Experiment = "y"
	if err := Compare(&base, &cur, 0.05); err == nil {
		t.Fatal("different experiment ids compared as equal")
	}
	cur = sampleReport(KindAnalytical)
	cur.Scale = "full"
	if err := Compare(&base, &cur, 0.05); err == nil {
		t.Fatal("different scales compared as equal")
	}
}

func TestEveryExperimentHasKind(t *testing.T) {
	for _, e := range Experiments() {
		switch e.Kind {
		case KindAnalytical, KindModeled, KindMeasured, KindMixed:
		default:
			t.Errorf("experiment %s has invalid kind %q", e.ID, e.Kind)
		}
	}
}
