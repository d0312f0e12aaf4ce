package netdef

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"spgcnn/internal/exec"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// plannerNet is conv+fc with no relu/pool, so the conv layer's backward
// gradients are dense and every build of the network lands in the same
// sparsity band deterministically.
const plannerNet = `
name: "planner"
input { channels: 1 height: 12 width: 12 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "fc0" type: "fc" outputs: 4 }
`

// deployed reports the FP and BP strategy names the scheduler deployed on
// each conv layer that has tuned both phases.
func deployed(net *nn.Network) map[string][2]string {
	out := map[string][2]string{}
	for _, c := range net.ConvLayers() {
		if fp, bp, ok := c.Selections(); ok && fp.Chosen != nil && bp.Chosen != nil {
			out[c.Name()] = [2]string{fp.Chosen.Strategy().Name, bp.Chosen.Strategy().Name}
		}
	}
	return out
}

// stepOnce drives one forward/backward batch through the network — enough
// to trigger both the FP and BP tuning passes of every conv layer.
func stepOnce(t *testing.T, net *nn.Network) {
	t.Helper()
	r := rng.New(11)
	in := tensor.New(net.InDims()...)
	in.FillNormal(r, 0, 1)
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(net.OutDims()...)
	nn.SoftmaxXent{}.Loss(logits[0], 1, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})
}

func tuneSpans(c *exec.Ctx) []string {
	var out []string
	for name := range c.Probe().Spans() {
		if strings.HasPrefix(name, "tune/") {
			out = append(out, name)
		}
	}
	return out
}

// TestSharedPlannerWarmSecondBuild is the tentpole acceptance test at the
// network level: the first network construction tunes; a second network
// built from the same definition against the same planner — under a
// completely fresh execution context — must perform zero measurement
// passes and deploy identical strategies.
func TestSharedPlannerWarmSecondBuild(t *testing.T) {
	def, err := Parse(plannerNet)
	if err != nil {
		t.Fatal(err)
	}
	planner := plan.New(plan.Options{})

	ctx1 := exec.New(2)
	net1, err := Build(def, BuildOptions{Ctx: ctx1, Planner: planner, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, net1)
	if len(tuneSpans(ctx1)) == 0 {
		t.Fatal("cold build should run tuning passes")
	}
	coldStats := planner.Stats()
	if coldStats.Measurements == 0 {
		t.Fatal("cold build should measure")
	}

	ctx2 := exec.New(2)
	net2, err := Build(def, BuildOptions{Ctx: ctx2, Planner: planner, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, net2)
	if spans := tuneSpans(ctx2); len(spans) != 0 {
		t.Errorf("warm build ran measurement passes: %v", spans)
	}
	if got := planner.Stats().Measurements; got != coldStats.Measurements {
		t.Errorf("warm build added measurement passes: %d -> %d", coldStats.Measurements, got)
	}
	if c1, c2 := deployed(net1), deployed(net2); !reflect.DeepEqual(c1, c2) {
		t.Errorf("warm build deployed different strategies: %v vs %v", c1, c2)
	}
}

// TestPlannerPersistenceAcrossBuilds saves the planner after a cold build
// and loads it into a brand-new planner: a third network built against the
// loaded planner must also tune nothing.
func TestPlannerPersistenceAcrossBuilds(t *testing.T) {
	def, err := Parse(plannerNet)
	if err != nil {
		t.Fatal(err)
	}
	cold := plan.New(plan.Options{})
	net1, err := Build(def, BuildOptions{Workers: 2, Planner: cold, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, net1)

	var buf bytes.Buffer
	if err := cold.Save(&buf); err != nil {
		t.Fatal(err)
	}
	warm := plan.New(plan.Options{})
	if _, err := warm.Load(&buf); err != nil {
		t.Fatal(err)
	}

	ctx3 := exec.New(2)
	net3, err := Build(def, BuildOptions{Ctx: ctx3, Planner: warm, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, net3)
	if spans := tuneSpans(ctx3); len(spans) != 0 {
		t.Errorf("build against a loaded plan cache measured: %v", spans)
	}
	if st := warm.Stats(); st.Measurements != 0 {
		t.Errorf("loaded planner ran %d measurement passes, want 0", st.Measurements)
	}
	if c1, c3 := deployed(net1), deployed(net3); !reflect.DeepEqual(c1, c3) {
		t.Errorf("persisted verdicts diverged: %v vs %v", c1, c3)
	}
}

// TestDefaultPlannerSharesWithinBuild: with no explicit planner, layers of
// one network with identical geometry still tune once — the per-build
// default planner dedups them.
func TestDefaultPlannerSharesWithinBuild(t *testing.T) {
	src := `
name: "twins"
input { channels: 2 height: 10 width: 10 }
layer { name: "convA" type: "conv" features: 2 kernel: 3 stride: 1 pad: 1 }
layer { name: "convB" type: "conv" features: 2 kernel: 3 stride: 1 pad: 1 }
layer { name: "fc0" type: "fc" outputs: 3 }
`
	def, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate what ONE measurement pass looks like: a single-conv
	// network with the same geometry, on its own context.
	soloSrc := `
name: "solo"
input { channels: 2 height: 10 width: 10 }
layer { name: "convA" type: "conv" features: 2 kernel: 3 stride: 1 pad: 1 }
layer { name: "fc0" type: "fc" outputs: 3 }
`
	soloDef, err := Parse(soloSrc)
	if err != nil {
		t.Fatal(err)
	}
	soloCtx := exec.New(2)
	solo, err := Build(soloDef, BuildOptions{Ctx: soloCtx, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, solo)

	// convA pads by 1 and so keeps the 10x10x2 extent; convB has identical
	// geometry, so its FP selection must come from convA's verdict: every
	// FP tune span carries exactly one pass worth of observations, same as
	// the single-layer calibration run. BP is the exception by design:
	// convA is the network's first layer and is measured without Eq. 3, a
	// verdict keyed so that convB can never deploy it — two passes.
	ctx := exec.New(2)
	net, err := Build(def, BuildOptions{Ctx: ctx, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	stepOnce(t, net)
	spans := tuneSpans(ctx)
	if len(spans) == 0 {
		t.Fatal("no tuning ran")
	}
	for _, s := range spans {
		st, ok := ctx.Probe().SpanStats(s)
		if !ok {
			t.Fatalf("span %s vanished", s)
		}
		ref, ok := soloCtx.Probe().SpanStats(s)
		if !ok {
			t.Fatalf("calibration run missing span %s", s)
		}
		want := ref.Calls
		if strings.HasPrefix(s, "tune/bp/") {
			want *= 2
		}
		if st.Calls != want {
			t.Errorf("span %s observed %d times, want %d (one pass observes %d); geometry twins should share FP and only FP",
				s, st.Calls, want, ref.Calls)
		}
	}
	choices := deployed(net)
	if choices["convA"][0] != choices["convB"][0] {
		t.Errorf("geometry twins deployed FP differently: %v vs %v", choices["convA"], choices["convB"])
	}
}
