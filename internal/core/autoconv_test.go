package core

import (
	"strings"
	"testing"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// fakeKernel is a no-compute kernel whose backward cost is a pure function
// of the observed gradient sparsity, so scheduler decisions in tests are
// deterministic: timing margins between candidates are ~10x, far beyond
// scheduler-clock noise.
type fakeKernel struct {
	spec   conv.Spec
	name   string
	bpCost func(sparsity float64) time.Duration
}

func (k fakeKernel) Name() string    { return k.name }
func (k fakeKernel) Spec() conv.Spec { return k.spec }

func (k fakeKernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	time.Sleep(50 * time.Microsecond)
}

func (k fakeKernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	var sum float64
	for _, eo := range eos {
		sum += eo.Sparsity()
	}
	time.Sleep(k.bpCost(sum / float64(len(eos))))
}

func (k fakeKernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
}

func fakeStrategy(name string, bpCost func(sparsity float64) time.Duration) Strategy {
	return Strategy{
		Name: name,
		Gen: engine.Generator{
			Name: name,
			New:  func(s conv.Spec) engine.Kernel { return fakeKernel{spec: s, name: name, bpCost: bpCost} },
		},
	}
}

// fakeBPStrategies returns a pair of candidates with opposite sparsity
// preferences: "dense-friendly" costs a constant 2ms, "sparse-friendly"
// costs 20ms on dense gradients but 200µs once sparsity crosses 0.5 —
// a miniature of the paper's GEMM-vs-Sparse-Kernel crossover (Fig. 3b).
func fakeBPStrategies() []Strategy {
	return []Strategy{
		fakeStrategy("dense-friendly", func(float64) time.Duration {
			return 2 * time.Millisecond
		}),
		fakeStrategy("sparse-friendly", func(sp float64) time.Duration {
			if sp >= 0.5 {
				return 200 * time.Microsecond
			}
			return 20 * time.Millisecond
		}),
	}
}

// measureAll is the tests' planner: one timed repetition of every candidate
// on every request, no cache — ChooseFP/ChooseBP called directly.
type measureAll struct{ fp, bp []Strategy }

func (m measureAll) PlanFP(s conv.Spec, c *exec.Ctx, ins []*tensor.Tensor,
	w *tensor.Tensor, opts TuneOptions) Planned {
	opts.Reps = 1
	return Planned{Selection: ChooseFP(SupportedStrategies(m.fp, s), s, c, ins, w, opts)}
}

func (m measureAll) PlanBP(s conv.Spec, c *exec.Ctx, eos, ins []*tensor.Tensor,
	w *tensor.Tensor, opts TuneOptions) Planned {
	opts.Reps = 1
	return Planned{Selection: ChooseBP(SupportedStrategies(m.bp, s), s, c, eos, ins, w, opts)}
}

func newFakeAutoConv(s conv.Spec, c *exec.Ctx) *AutoConv {
	return NewAutoConv(s, c, measureAll{
		fp: []Strategy{fakeStrategy("fake-fp", nil)},
		bp: fakeBPStrategies(),
	})
}

// recheck ends as many epochs as the BP re-check period, so exactly one
// re-plan runs.
func recheck(a *AutoConv) {
	for i := 0; i < recheckEpochs; i++ {
		a.EpochEnd()
	}
}

// TestAutoConvCopiesRetainedGradients is the regression test for the
// scheduler aliasing caller-owned batch tensors: the retained re-tuning
// sample must survive the caller recycling its gradient buffers.
func TestAutoConvCopiesRetainedGradients(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	r := rng.New(7)
	a := newFakeAutoConv(s, exec.New(1))

	eos := []*tensor.Tensor{conv.RandOutputError(r, s, 0.9)}
	ins := []*tensor.Tensor{conv.RandInput(r, s)}
	eis := []*tensor.Tensor{conv.NewInput(s)}
	dw := conv.NewWeights(s)

	a.Backward(eis, dw, eos, ins, a.lastWRef)
	wantSp := eos[0].Sparsity()
	wantIn := ins[0].Data[0]

	if &a.lastEOs[0].Data[0] == &eos[0].Data[0] {
		t.Fatal("retained gradient aliases the caller's tensor")
	}
	if &a.lastIns[0].Data[0] == &ins[0].Data[0] {
		t.Fatal("retained input aliases the caller's tensor")
	}

	// The trainer recycles batch storage: overwrite with dense garbage.
	for i := range eos[0].Data {
		eos[0].Data[i] = 1
	}
	for i := range ins[0].Data {
		ins[0].Data[i] = -3
	}

	if got := a.lastEOs[0].Sparsity(); got != wantSp {
		t.Fatalf("retained sample sparsity changed with the caller's buffer: got %v, want %v", got, wantSp)
	}
	if got := a.lastIns[0].Data[0]; got != wantIn {
		t.Fatalf("retained input changed with the caller's buffer: got %v, want %v", got, wantIn)
	}

	// Steady state reuses the retained tensors instead of reallocating.
	prev := a.lastEOs[0]
	a.Backward(eis, dw, eos, ins, nil)
	if a.lastEOs[0] != prev {
		t.Error("retention reallocated despite matching shapes")
	}
	if a.lastEOs[0].Sparsity() != 0 {
		t.Error("second retention did not refresh the sample data")
	}
}

// TestAutoConvEpochEndFlipsBPStrategy drives the §4.4 re-check: tuning on
// dense gradients deploys the dense-friendly candidate; once the retained
// sample turns sparse, EpochEnd must switch the deployment and record the
// flip as a probe choice event — even though the caller mutates its batch
// buffers between Backward and EpochEnd.
func TestAutoConvEpochEndFlipsBPStrategy(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	r := rng.New(11)
	c := exec.New(1)
	a := newFakeAutoConv(s, c)

	ins := []*tensor.Tensor{conv.RandInput(r, s)}
	eis := []*tensor.Tensor{conv.NewInput(s)}
	dw := conv.NewWeights(s)

	// Epoch 0: dense gradients. First Backward tunes.
	eos := []*tensor.Tensor{conv.RandOutputError(r, s, 0)}
	a.Backward(eis, dw, eos, ins, nil)
	if got := a.BPSelection().Chosen.Strategy().Name; got != "dense-friendly" {
		t.Fatalf("dense tuning deployed %q, want dense-friendly", got)
	}
	recheck(a) // against the dense sample: no flip
	if got := a.BPSelection().Chosen.Strategy().Name; got != "dense-friendly" {
		t.Fatalf("dense re-check flipped to %q", got)
	}

	// Epoch 1: training converged, gradients now ~95% sparse.
	sparse := conv.RandOutputError(r, s, 0.95)
	copy(eos[0].Data, sparse.Data)
	a.Backward(eis, dw, eos, ins, nil)
	// Caller recycles the batch buffer before the epoch boundary.
	for i := range eos[0].Data {
		eos[0].Data[i] = 1
	}
	recheck(a)

	if got := a.BPSelection().Chosen.Strategy().Name; got != "sparse-friendly" {
		t.Fatalf("sparse re-check deployed %q, want sparse-friendly", got)
	}
	var flips []exec.Choice
	for _, ch := range c.Probe().Choices() {
		if ch.Phase == "bp-flip" {
			flips = append(flips, ch)
		}
	}
	if len(flips) != 1 || flips[0].Strategy != "sparse-friendly" {
		t.Fatalf("bp-flip choice events = %+v, want one sparse-friendly flip", flips)
	}
}

// recordingPlanner wraps measureAll and keeps the TuneOptions of every BP
// request.
type recordingPlanner struct {
	Planner
	bp []TuneOptions
}

func (p *recordingPlanner) PlanBP(s conv.Spec, c *exec.Ctx, eos, ins []*tensor.Tensor,
	w *tensor.Tensor, opts TuneOptions) Planned {
	p.bp = append(p.bp, opts)
	return p.Planner.PlanBP(s, c, eos, ins, w, opts)
}

// TestAutoConvPlansWhatItDeploys: a layer driven with nil eis (a network's
// first layer) asks the planner for a verdict measured without Eq. 3, at
// first tuning and at the epoch re-check alike; a layer driven with eis
// never does.
func TestAutoConvPlansWhatItDeploys(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	r := rng.New(9)
	eos := []*tensor.Tensor{conv.RandOutputError(r, s, 0.9)}
	ins := []*tensor.Tensor{conv.RandInput(r, s)}
	dw := conv.NewWeights(s)
	for _, eis := range [][]*tensor.Tensor{nil, {conv.NewInput(s)}} {
		pl := &recordingPlanner{Planner: measureAll{bp: fakeBPStrategies()}}
		a := NewAutoConv(s, exec.New(1), pl)
		a.Backward(eis, dw, eos, ins, conv.NewWeights(s))
		recheck(a)
		if len(pl.bp) != 2 {
			t.Fatalf("planner saw %d BP requests, want 2 (first tune + re-check)", len(pl.bp))
		}
		for i, opts := range pl.bp {
			if opts.NoInputGrad != (eis == nil) {
				t.Errorf("request %d with eis nil=%v: NoInputGrad = %v", i, eis == nil, opts.NoInputGrad)
			}
		}
	}
}

// TestFixedPlannerPinsWithoutMeasuring: a layer under FixedPlanner runs the
// named strategy per phase, records no tune span and no choice event, and
// its epoch re-checks never flip.
func TestFixedPlannerPinsWithoutMeasuring(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	r := rng.New(13)
	c := exec.New(2)
	fpSt, _ := StrategyByName("stencil", 2)
	bpSt, _ := StrategyByName("sparse", 2)
	a := NewAutoConv(s, c, FixedPlanner(fpSt, bpSt))
	w := conv.RandWeights(r, s)
	ins, eos := sampleBatch(r, s, 3, 0.9)
	outs := []*tensor.Tensor{conv.NewOutput(s), conv.NewOutput(s), conv.NewOutput(s)}
	dw := conv.NewWeights(s)
	for epoch := 0; epoch < 2*recheckEpochs; epoch++ {
		if got := a.Forward(outs, ins, w).Strategy().Name; got != "stencil" {
			t.Fatalf("epoch %d: FP ran %q, want stencil", epoch, got)
		}
		if got := a.Backward(nil, dw, eos, ins, w).Strategy().Name; got != "sparse" {
			t.Fatalf("epoch %d: BP ran %q, want sparse", epoch, got)
		}
		a.EpochEnd()
	}
	if fp, bp := a.FPSelection(), a.BPSelection(); len(fp.Timings)+len(bp.Timings) != 0 {
		t.Errorf("pinned selections carry timing tables: fp %v bp %v", fp.Timings, bp.Timings)
	}
	if ch := c.Probe().Choices(); len(ch) != 0 {
		t.Errorf("pinned layer recorded choices %+v", ch)
	}
	for name := range c.Probe().Spans() {
		if strings.HasPrefix(name, "tune/") {
			t.Errorf("pinned layer recorded tune span %s", name)
		}
	}
}
