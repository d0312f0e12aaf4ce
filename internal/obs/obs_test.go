package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/metrics"
	"spgcnn/internal/plan"
)

func testSpec() conv.Spec {
	return conv.Spec{Nx: 12, Ny: 12, Nc: 8, Nf: 16, Fx: 3, Fy: 3, Sx: 1, Sy: 1}
}

// modelSeconds returns the exact wall time the observatory predicts for a
// whole-batch span — feeding spans of this length yields ratio 1.0.
func modelSeconds(t *testing.T, s conv.Spec, phase, strategy string, sparsity float64, workers, batch int) float64 {
	t.Helper()
	rate, ok := plan.ModelRate(machine.Paper(), s, phase, sparsity, workers, strategy)
	if !ok {
		t.Fatalf("strategy %q not modeled for %s", strategy, phase)
	}
	var flops float64
	if phase == "fp" {
		flops = float64(s.FlopsFP())
	} else {
		flops = float64(s.FlopsBPInput() + s.FlopsBPWeights())
	}
	return float64(batch) * flops / (rate * 1e9 * float64(workers))
}

// layerEvent is the network's event of one call of layer c1; planned marks
// a call that ran a planning pass, as a deployment's first call does.
func layerEvent(phase, strategy string, seconds float64, planned bool) exec.Event {
	return exec.Event{Cat: "layer", Name: "layer/c1/" + phase + "/" + strategy, Layer: "c1",
		Phase: phase, Strategy: strategy, Seconds: seconds, Planned: planned}
}

func newTestObservatory(opts Options) *Observatory {
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	return New(opts)
}

func TestAgreementTracksModel(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(4)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 4)
	for i := 0; i < 21; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, i == 0))
	}
	rep := o.Report()
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	r := rep.Rows[0]
	// The first call planned the deployment and is not observed, so 21
	// calls account as 20 observations.
	if r.Calls != 20 || r.Strategy != "parallel-gemm" || r.Phase != "fp" {
		t.Fatalf("row = %+v", r)
	}
	if math.Abs(r.Agreement-1) > 1e-9 || math.Abs(r.EWMA-1) > 1e-9 {
		t.Fatalf("agreement %v ewma %v, want 1.0", r.Agreement, r.EWMA)
	}
	if len(o.Events()) != 0 {
		t.Fatalf("events fired on perfectly agreeing stream: %v", o.Events())
	}
}

func TestDriftFiresAfterConsecutiveBreaches(t *testing.T) {
	s := testSpec()
	var got []DriftEvent
	o := newTestObservatory(Options{
		OnDrift: func(ev DriftEvent) { got = append(got, ev) },
	})
	o.RegisterLayer("c1", s)
	o.SetBatch(4)
	pred := modelSeconds(t, s, "bp", "parallel-gemm", 0, 2, 4)
	// Warm up and settle the baseline at ratio 1.
	for i := 0; i < 10; i++ {
		o.Record(layerEvent("bp", "parallel-gemm", pred, i == 0))
	}
	if len(got) != 0 {
		t.Fatalf("drift during steady state: %v", got)
	}
	// A sustained 2x slowdown. Every slowed span is out of band at once;
	// the EWMA (alpha 0.25) reads 1.25, 1.44, 1.58, 1.68, 1.76, so it
	// crosses 1.5x the baseline on the 3rd slowed observation, and the 3rd
	// consecutive breach fires on the 5th: observation 9 + 5 = 14.
	steps := 0
	for i := 0; i < 50 && len(got) == 0; i++ {
		o.Record(layerEvent("bp", "parallel-gemm", 2*pred, false))
		steps++
	}
	if len(got) != 1 || steps != 5 {
		t.Fatalf("drift events = %d after %d slowed steps, want 1 after 5", len(got), steps)
	}
	ev := got[0]
	if ev.Layer != "c1" || ev.Phase != "bp" || ev.Strategy != "parallel-gemm" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Observation != 14 || math.Abs(ev.Baseline-1) > 1e-9 || math.Abs(ev.Ratio-(2-math.Pow(0.75, 5))) > 1e-9 {
		t.Fatalf("event at observation %d, ratio %v, baseline %v; want 14, %v, 1",
			ev.Observation, ev.Ratio, ev.Baseline, 2-math.Pow(0.75, 5))
	}
	// The baseline re-arms at the new steady state: continued 2x spans
	// fire nothing further.
	for i := 0; i < 20; i++ {
		o.Record(layerEvent("bp", "parallel-gemm", 2*pred, false))
	}
	if len(got) != 1 {
		t.Fatalf("persistent slowdown kept firing: %d events", len(got))
	}
	if rep := o.Report(); rep.Rows[0].Drifts != 1 || rep.TotalDrifts() != 1 {
		t.Fatalf("report drift count = %+v", rep.Rows[0])
	}
}

// TestWarmupSpikeFiresNothing: one 8x or 10x span among the warm-up
// observations, at any position, is an outlier the baseline ignores. It
// freezes at the warm-up median, 1, so the spans after it stay in band even
// while the EWMA still carries the spike, and a later sustained 2x fires on
// its 5th observation exactly as it would without the spike. A baseline
// frozen at the EWMA would sit at 1.6-3.25 and alarm as the EWMA decayed.
func TestWarmupSpikeFiresNothing(t *testing.T) {
	s := testSpec()
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for _, spike := range []float64{8, 10} {
		for at := 0; at < DefaultWarmup; at++ {
			o := newTestObservatory(Options{})
			o.RegisterLayer("c1", s)
			o.SetBatch(2)
			o.Record(layerEvent("fp", "parallel-gemm", pred, true))
			for i := 0; i < DefaultWarmup; i++ {
				f := 1.0
				if i == at {
					f = spike
				}
				o.Record(layerEvent("fp", "parallel-gemm", f*pred, false))
			}
			for i := 0; i < 30; i++ {
				o.Record(layerEvent("fp", "parallel-gemm", pred, false))
			}
			if evs := o.Events(); len(evs) != 0 {
				t.Fatalf("%gx span at warm-up observation %d fired %v", spike, at+1, evs)
			}
			for i := 0; i < 5; i++ {
				o.Record(layerEvent("fp", "parallel-gemm", 2*pred, false))
			}
			if evs := o.Events(); len(evs) != 1 || evs[0].Observation != DefaultWarmup+35 || math.Abs(evs[0].Baseline-1) > 1e-9 {
				t.Fatalf("%gx span at warm-up observation %d: sustained 2x fired %v, want one event at observation %d against baseline 1",
					spike, at+1, evs, DefaultWarmup+35)
			}
		}
	}
}

// TestSteadyStateSpikeFiresNothing: one 10x span on a settled stream lifts
// the EWMA above 1.5x the baseline for six observations, but only the
// spike's own ratio is out of band, so it is one breach, not three.
func TestSteadyStateSpikeFiresNothing(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 10; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, i == 0))
	}
	o.Record(layerEvent("fp", "parallel-gemm", 10*pred, false))
	for i := 0; i < 20; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, false))
	}
	if evs := o.Events(); len(evs) != 0 {
		t.Fatalf("one 10x span fired %v", evs)
	}
}

func TestRedeployResetsStream(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	p1 := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 10; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", p1, i == 0))
	}
	// The scheduler flips the deployment. Stencil's model rate differs
	// wildly from parallel-gemm's; a naive shared baseline would alarm.
	p2 := modelSeconds(t, s, "fp", "stencil", 0, 2, 2)
	for i := 0; i < 10; i++ {
		o.Record(layerEvent("fp", "stencil", p2, i == 0))
	}
	if n := len(o.Events()); n != 0 {
		t.Fatalf("redeploy read as drift: %d events", n)
	}
	rep := o.Report()
	if len(rep.Rows) != 1 || rep.Rows[0].Strategy != "stencil" || rep.Rows[0].Calls != 9 {
		t.Fatalf("stream did not reset on redeploy: %+v", rep.Rows)
	}
}

// TestDriftCountSurvivesRedeploy: a drift's usual consequence is a re-plan
// that may deploy another strategy, which resets the stream. The series'
// drift count must carry over, so the report's totals and region rollup
// count every event it lists — before the new deployment is observed and
// after.
func TestDriftCountSurvivesRedeploy(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 8; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, i == 0))
	}
	for i := 0; i < 20 && len(o.Events()) == 0; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", 3*pred, false))
	}
	if len(o.Events()) != 1 {
		t.Fatalf("slowdown fired %d events, want 1", len(o.Events()))
	}
	check := func(when, strategy string) {
		t.Helper()
		rep := o.Report()
		regionDrifts := 0
		for _, rr := range rep.Regions {
			regionDrifts += rr.Drifts
		}
		if len(rep.Rows) != 1 || rep.Rows[0].Strategy != strategy {
			t.Fatalf("%s: rows %+v, want one %s row", when, rep.Rows, strategy)
		}
		if rep.TotalDrifts() != len(rep.Events) || regionDrifts != len(rep.Events) || len(rep.Events) != 1 {
			t.Fatalf("%s: TotalDrifts %d, region drifts %d, %d events", when,
				rep.TotalDrifts(), regionDrifts, len(rep.Events))
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	p2 := modelSeconds(t, s, "fp", "stencil", 0, 2, 2)
	o.Record(layerEvent("fp", "stencil", p2, true)) // not observed: the call re-planned
	check("redeployed, not yet observed", "parallel-gemm")
	for i := 0; i < 5; i++ {
		o.Record(layerEvent("fp", "stencil", p2, false))
	}
	check("redeployed and observed", "stencil")
}

// TestPlannedCallIsNotObserved: a call that re-planned and deployed the same
// strategy again (a BP band or invalidation re-plan, a serving bucket's
// first use) carries the measurement pass in its time. The observatory drops
// exactly that event, so a 10x planned call on a settled stream moves
// neither the EWMA nor the row's Calls and Measured totals.
func TestPlannedCallIsNotObserved(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 6; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, i == 0))
	}
	o.Record(layerEvent("fp", "parallel-gemm", 10*pred, true))
	for i := 0; i < 5; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, false))
	}
	if evs := o.Events(); len(evs) != 0 {
		t.Fatalf("a planned call breached: %v", evs)
	}
	rep := o.Report()
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	if r := rep.Rows[0]; r.Calls != 10 || math.Abs(r.MeasuredSeconds-10*pred) > 1e-9*pred || math.Abs(r.EWMA-1) > 1e-9 {
		t.Fatalf("row counts %d calls, %g s measured, ewma %v; want 10 calls, %g s, ewma 1",
			r.Calls, r.MeasuredSeconds, r.EWMA, 10*pred)
	}
}

func TestSparsityRerateIsNotDrift(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	o.SetSparsity("c1", 0, 0.2)
	pred := modelSeconds(t, s, "bp", "sparse", 0.2, 2, 2)
	for i := 0; i < 10; i++ {
		o.Record(layerEvent("bp", "sparse", pred, i == 0))
	}
	// Gradient sparsity rises: the model now predicts the sparse kernel
	// runs FASTER (higher dense-equivalent rate). If the measured spans
	// speed up in proportion, the agreement is intact — no drift.
	o.SetSparsity("c1", -1, 0.9)
	pred9 := modelSeconds(t, s, "bp", "sparse", 0.9, 2, 2)
	if pred9 >= pred {
		t.Fatalf("sparse model rate did not improve with sparsity: %v !< %v", pred9, pred)
	}
	for i := 0; i < 20; i++ {
		o.Record(layerEvent("bp", "sparse", pred9, false))
	}
	if n := len(o.Events()); n != 0 {
		t.Fatalf("in-model sparsity re-rate fired %d drift events", n)
	}
	if rep := o.Report(); rep.Rows[0].Band != ait.Band(0.9) {
		t.Fatalf("report band = %d, want %d", rep.Rows[0].Band, ait.Band(0.9))
	}
}

func TestIgnoresForeignSpans(t *testing.T) {
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", testSpec())
	for _, ev := range []exec.Event{
		{Cat: "pack", Name: "pack/whatever/hit", Seconds: 1},
		{Cat: "core", Name: "core/fp/stencil", Seconds: 1},
		{Cat: "layer", Name: "layer/c1/fp", Layer: "c1", Phase: "fp", Seconds: 1},
		{Cat: "layer", Name: "layer/unregistered/fp/stencil", Layer: "unregistered", Phase: "fp", Strategy: "stencil", Seconds: 1},
		layerEvent("fp", "no-such-strategy", 1, false),
		layerEvent("fp", "stencil", 1, true),
		exec.ChoiceEvent("fp", "stencil", 1),
	} {
		o.Record(ev)
	}
	if rep := o.Report(); len(rep.Rows) != 0 {
		t.Fatalf("foreign spans produced rows: %+v", rep.Rows)
	}
}

func TestMetricsExport(t *testing.T) {
	s := testSpec()
	r := metrics.NewRegistry()
	o := newTestObservatory(Options{Metrics: r})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 6; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, i == 0))
	}
	for i := 0; i < 10; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", 3*pred, false))
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`spg_drift_agreement_ratio{layer="c1",phase="fp"}`,
		`spg_drift_ewma_ratio{layer="c1",phase="fp"}`,
		"spg_drift_events_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered metrics missing %q:\n%s", want, out)
		}
	}
}

func TestReportRoundTripAndValidate(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 5; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred*1.1, i == 0))
	}
	rep := o.Report()
	if err := rep.Validate(); err != nil {
		t.Fatalf("fresh report invalid: %v", err)
	}
	path := filepath.Join(t.TempDir(), "drift.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Agreement == 0 || got.Schema != ReportSchemaVersion {
		t.Fatalf("round-tripped report = %+v", got)
	}

	// Schema and invariant rejection.
	bad := rep
	bad.Schema = 99
	if bad.Validate() == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = rep
	bad.Rows = append([]Row(nil), rep.Rows...)
	bad.Rows[0].Phase = "sideways"
	if bad.Validate() == nil {
		t.Fatal("bad phase accepted")
	}
	bad = rep
	bad.Rows = append([]Row(nil), rep.Rows...)
	bad.Rows[0].Agreement = math.NaN()
	if bad.Validate() == nil {
		t.Fatal("NaN agreement accepted")
	}
	bad = rep
	bad.Rows = append([]Row(nil), rep.Rows...)
	bad.Rows[0].Region = 11
	if bad.Validate() == nil {
		t.Fatal("out-of-range region accepted")
	}
	if _, err := ReadReport(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestRenderReport(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 6; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, i == 0))
	}
	for i := 0; i < 8; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", 4*pred, false))
	}
	var sb strings.Builder
	o.Report().Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"agreement per Fig. 1 region:", "Region 4", "per-series agreement:",
		"drift events:", "drift c1/fp [parallel-gemm",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}
