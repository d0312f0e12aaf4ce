package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spgcnn/internal/conv"
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
		o.ObserveSpan("layer/c1/fp/parallel-gemm", pred)
	}
	rep := o.Report()
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %+v", rep.Rows)
	}
	r := rep.Rows[0]
	// The stream's first span is discarded (it carries the lazy tuning
	// pass), so 21 spans account as 20 observations.
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
		Warmup: 3, Window: 4, Threshold: 1.5,
		OnDrift: func(ev DriftEvent) { got = append(got, ev) },
	})
	o.RegisterLayer("c1", s)
	o.SetBatch(4)
	pred := modelSeconds(t, s, "bp", "parallel-gemm", 0, 2, 4)
	// Warm up and settle the baseline at ratio 1.
	for i := 0; i < 10; i++ {
		o.ObserveSpan("layer/c1/bp/parallel-gemm", pred)
	}
	if len(got) != 0 {
		t.Fatalf("drift during steady state: %v", got)
	}
	// A fake 2x slowdown: the EWMA must cross baseline*1.5 and, after
	// Window consecutive breaching observations, fire exactly one event.
	steps := 0
	for i := 0; i < 50 && len(got) == 0; i++ {
		o.ObserveSpan("layer/c1/bp/parallel-gemm", 2*pred)
		steps++
	}
	if len(got) != 1 {
		t.Fatalf("drift events = %d after %d slowed steps", len(got), steps)
	}
	ev := got[0]
	if ev.Layer != "c1" || ev.Phase != "bp" || ev.Strategy != "parallel-gemm" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Ratio/ev.Baseline < 1.5 {
		t.Fatalf("event ratio %.3f / baseline %.3f below threshold", ev.Ratio, ev.Baseline)
	}
	// EWMA(0.25) crossing 1.5 needs ceil(log(1-0.5/1)/log(0.75)) = 3 obs,
	// plus Window=4 consecutive breaches: must fire within ~10 steps.
	if steps > 10 {
		t.Fatalf("drift took %d steps to fire", steps)
	}
	// The baseline re-arms at the new steady state: continued 2x spans
	// fire nothing further.
	for i := 0; i < 20; i++ {
		o.ObserveSpan("layer/c1/bp/parallel-gemm", 2*pred)
	}
	if len(got) != 1 {
		t.Fatalf("persistent slowdown kept firing: %d events", len(got))
	}
	if rep := o.Report(); rep.Rows[0].Drifts != 1 || rep.TotalDrifts() != 1 {
		t.Fatalf("report drift count = %+v", rep.Rows[0])
	}
}

func TestSlowdownInjectionSeam(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{Warmup: 3, Window: 3})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "stencil", 0, 2, 2)
	for i := 0; i < 8; i++ {
		o.ObserveSpan("layer/c1/fp/stencil", pred)
	}
	o.SetSlowdown(2)
	for i := 0; i < 20; i++ {
		o.ObserveSpan("layer/c1/fp/stencil", pred) // same wall time; injection slows it
	}
	if n := len(o.Events()); n != 1 {
		t.Fatalf("injected slowdown fired %d events, want 1", n)
	}
	o.SetSlowdown(0) // disable: back to 1x -> drifts back DOWN eventually
	for i := 0; i < 20; i++ {
		o.ObserveSpan("layer/c1/fp/stencil", pred)
	}
	if n := len(o.Events()); n != 2 {
		t.Fatalf("recovery fired %d events total, want 2 (one per direction)", n)
	}
}

func TestRedeployResetsStream(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{Warmup: 2, Window: 2})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	p1 := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 10; i++ {
		o.ObserveSpan("layer/c1/fp/parallel-gemm", p1)
	}
	// The scheduler flips the deployment. Stencil's model rate differs
	// wildly from parallel-gemm's; a naive shared baseline would alarm.
	p2 := modelSeconds(t, s, "fp", "stencil", 0, 2, 2)
	for i := 0; i < 10; i++ {
		o.ObserveSpan("layer/c1/fp/stencil", p2)
	}
	if n := len(o.Events()); n != 0 {
		t.Fatalf("redeploy read as drift: %d events", n)
	}
	rep := o.Report()
	if len(rep.Rows) != 1 || rep.Rows[0].Strategy != "stencil" || rep.Rows[0].Calls != 9 {
		t.Fatalf("stream did not reset on redeploy: %+v", rep.Rows)
	}
}

func TestSparsityRerateIsNotDrift(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{Warmup: 3, Window: 3})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	o.SetSparsity("c1", 0, 0.2)
	pred := modelSeconds(t, s, "bp", "sparse", 0.2, 2, 2)
	for i := 0; i < 10; i++ {
		o.ObserveSpan("layer/c1/bp/sparse", pred)
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
		o.ObserveSpan("layer/c1/bp/sparse", pred9)
	}
	if n := len(o.Events()); n != 0 {
		t.Fatalf("in-model sparsity re-rate fired %d drift events", n)
	}
	if rep := o.Report(); rep.Rows[0].Band != plan.Band(0.9) {
		t.Fatalf("report band = %d, want %d", rep.Rows[0].Band, plan.Band(0.9))
	}
}

func TestIgnoresForeignSpans(t *testing.T) {
	o := newTestObservatory(Options{})
	o.RegisterLayer("c1", testSpec())
	for _, span := range []string{
		"pack/whatever/hit", "step/3", "layer/c1/fp", "layer/c1/fp/tuning",
		"layer/unregistered/fp/stencil", "layer/c1/oddphase/stencil",
		"layer/c1/fp/no-such-strategy",
	} {
		o.ObserveSpan(span, 1)
	}
	if rep := o.Report(); len(rep.Rows) != 0 {
		t.Fatalf("foreign spans produced rows: %+v", rep.Rows)
	}
}

func TestMetricsExport(t *testing.T) {
	s := testSpec()
	r := metrics.NewRegistry()
	o := newTestObservatory(Options{Warmup: 2, Window: 2, Metrics: r})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 6; i++ {
		o.ObserveSpan("layer/c1/fp/parallel-gemm", pred)
	}
	o.SetSlowdown(3)
	for i := 0; i < 10; i++ {
		o.ObserveSpan("layer/c1/fp/parallel-gemm", pred)
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
		o.ObserveSpan("layer/c1/fp/parallel-gemm", pred*1.1)
	}
	rep := o.Report()
	if err := rep.Validate(); err != nil {
		t.Fatalf("fresh report invalid: %v", err)
	}
	path := filepath.Join(t.TempDir(), "drift.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
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
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReportFile(path); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestRenderReport(t *testing.T) {
	s := testSpec()
	o := newTestObservatory(Options{Warmup: 2, Window: 2})
	o.RegisterLayer("c1", s)
	o.SetBatch(2)
	pred := modelSeconds(t, s, "fp", "parallel-gemm", 0, 2, 2)
	for i := 0; i < 6; i++ {
		o.ObserveSpan("layer/c1/fp/parallel-gemm", pred)
	}
	o.SetSlowdown(4)
	for i := 0; i < 8; i++ {
		o.ObserveSpan("layer/c1/fp/parallel-gemm", pred)
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

type fakeRetunable struct {
	name    string
	spec    conv.Spec
	retunes []string
}

func (f *fakeRetunable) Name() string        { return f.name }
func (f *fakeRetunable) Spec() conv.Spec     { return f.spec }
func (f *fakeRetunable) Retune(phase string) { f.retunes = append(f.retunes, phase) }

func TestCouplerQueuesAndApplies(t *testing.T) {
	s := testSpec()
	c := NewCoupler(nil)
	l := &fakeRetunable{name: "c1", spec: s}
	l2 := &fakeRetunable{name: "c1", spec: s} // second replica, same name
	c.Register(l)
	c.Register(l2)
	c.OnDrift(DriftEvent{Layer: "c1", Phase: "bp", Strategy: "sparse", Spec: s})
	c.OnDrift(DriftEvent{Layer: "c1", Phase: "bp", Strategy: "sparse", Spec: s}) // dedup
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (deduped)", c.Pending())
	}
	if n := c.Apply(); n != 2 {
		t.Fatalf("Apply retuned %d layers, want both replicas", n)
	}
	if len(l.retunes) != 1 || l.retunes[0] != "bp" || len(l2.retunes) != 1 {
		t.Fatalf("retunes = %v / %v", l.retunes, l2.retunes)
	}
	if c.Apply() != 0 {
		t.Fatal("second Apply re-ran retunes")
	}
	if c.Applied() != 2 {
		t.Fatalf("Applied = %d", c.Applied())
	}
}
