package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// measureAll is the tests' planner: one measurement pass over every candidate
// on every request, no cache — ChooseFP/ChooseBP called directly.
type measureAll struct{ fp, bp []Strategy }

func (m measureAll) PlanFP(s conv.Spec, c *exec.Ctx, ins []*tensor.Tensor,
	w *tensor.Tensor, opts TuneOptions) Planned {
	return Planned{Selection: ChooseFP(SupportedStrategies(m.fp, s), s, c, ins, w, opts)}
}

func (m measureAll) PlanBP(s conv.Spec, c *exec.Ctx, eos, ins []*tensor.Tensor,
	w *tensor.Tensor, opts TuneOptions) Planned {
	return Planned{Selection: ChooseBP(SupportedStrategies(m.bp, s), s, c, eos, ins, w, opts)}
}

// bandPlanner is a counting planner that measures nothing: its BP verdict
// is a pure function of the sample gradients' band — "sparse" past Fig. 1's
// crossover, "gemm-in-parallel" below it — and its FP verdict is always
// "stencil". Every verdict carries a staleness flag invalidate flips, the
// way plan.Planner.InvalidateSpec flips a dropped entry's.
type bandPlanner struct {
	fpBuckets []int            // TuneOptions.Batch of every FP request
	bpEOs     []*tensor.Tensor // first sample gradient of every BP request
	bpOpts    []TuneOptions
	stale     []*atomic.Bool
}

func (p *bandPlanner) verdict(name string, s conv.Spec, c *exec.Ctx) Planned {
	st, _ := StrategyByName(name, c.Workers())
	flag := new(atomic.Bool)
	p.stale = append(p.stale, flag)
	return Planned{Selection: Selection{Chosen: NewExecCtx(st, s, c),
		Timings: []Timing{{Strategy: st, Seconds: 1e-3}}}, Stale: flag}
}

func (p *bandPlanner) PlanFP(s conv.Spec, c *exec.Ctx, _ []*tensor.Tensor,
	_ *tensor.Tensor, opts TuneOptions) Planned {
	p.fpBuckets = append(p.fpBuckets, opts.Batch)
	return p.verdict("stencil", s, c)
}

func (p *bandPlanner) PlanBP(s conv.Spec, c *exec.Ctx, eos, _ []*tensor.Tensor,
	_ *tensor.Tensor, opts TuneOptions) Planned {
	p.bpEOs = append(p.bpEOs, eos[0])
	p.bpOpts = append(p.bpOpts, opts)
	if ait.Band(eos[0].Sparsity()) == ait.BandCount-1 {
		return p.verdict("sparse", s, c)
	}
	return p.verdict("gemm-in-parallel", s, c)
}

func (p *bandPlanner) invalidate() {
	for _, f := range p.stale {
		f.Store(true)
	}
}

// eoAt returns an output-error tensor whose sparsity is exactly the nearest
// representable fraction to sp: the first zeros, the rest ones.
func eoAt(s conv.Spec, sp float64) *tensor.Tensor {
	t := conv.NewOutput(s)
	zeros := int(sp*float64(len(t.Data)) + 0.5)
	for i := zeros; i < len(t.Data); i++ {
		t.Data[i] = 1
	}
	return t
}

func bpFlips(c *exec.Ctx) (flips []string) {
	for _, ch := range c.Probe().Choices() {
		if ch.Phase == "bp-flip" {
			flips = append(flips, ch.Strategy)
		}
	}
	return flips
}

// TestAutoConvReplansWhenSparsityChangesBand scripts the band trigger with a
// counting planner, one-sample batches and no timing: in-band batches never
// reach the planner after the first; a band change re-plans only on its
// third consecutive batch, on that batch's own samples; sparsity alternating
// across 0.75 never re-plans; and a "bp-flip" is recorded exactly when a
// re-plan changes the strategy.
func TestAutoConvReplansWhenSparsityChangesBand(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	c := exec.New(1)
	pl := &bandPlanner{}
	a := NewAutoConv(s, c, pl)
	w := conv.RandWeights(rng.New(3), s)
	ins := []*tensor.Tensor{conv.RandInput(rng.New(4), s)}
	dw := conv.NewWeights(s)
	var eos []*tensor.Tensor
	step := func(sp float64) string {
		eos = []*tensor.Tensor{eoAt(s, sp)}
		asked := len(pl.bpEOs)
		ran, planned := a.Backward(nil, dw, eos, ins, w, eos[0].Sparsity())
		if planned != (len(pl.bpEOs) > asked) {
			t.Fatalf("Backward reported planned=%v after %d planner requests", planned, len(pl.bpEOs)-asked)
		}
		return ran.Strategy().Name
	}

	for i, sp := range []float64{0.1, 0.2, 0.1, 0.15, 0.2} {
		if got := step(sp); got != "gemm-in-parallel" {
			t.Fatalf("dense batch %d ran %q", i, got)
		}
	}
	if len(pl.bpEOs) != 1 {
		t.Fatalf("in-band batches reached the planner %d times, want once", len(pl.bpEOs))
	}

	step(0.9)
	step(0.9)
	if len(pl.bpEOs) != 1 {
		t.Fatalf("2 out-of-band batches re-planned (%d requests)", len(pl.bpEOs))
	}
	if got := step(0.95); got != "sparse" {
		t.Fatalf("third out-of-band batch ran %q, want sparse", got)
	}
	if len(pl.bpEOs) != 2 || pl.bpEOs[1] != eos[0] {
		t.Fatalf("third out-of-band batch: %d requests, planned on its own sample %v",
			len(pl.bpEOs), pl.bpEOs[len(pl.bpEOs)-1] == eos[0])
	}

	for i := 0; i < 10; i++ { // 0.69, 0.81, 0.69, ...: across the crossover every batch
		step(0.7 + 0.1*float64(i%2))
	}
	if len(pl.bpEOs) != 2 {
		t.Fatalf("sparsity alternating across 0.75 re-planned (%d requests)", len(pl.bpEOs))
	}

	for _, sp := range []float64{0.6, 0.6, 0.6} { // band 2: back to dense, a flip
		step(sp)
	}
	for _, sp := range []float64{0.1, 0.1, 0.1} { // band 0: re-planned, same strategy
		step(sp)
	}
	if len(pl.bpEOs) != 4 {
		t.Fatalf("two band moves made %d requests in all, want 4", len(pl.bpEOs))
	}
	if flips := bpFlips(c); len(flips) != 2 || flips[0] != "sparse" || flips[1] != "gemm-in-parallel" {
		t.Fatalf("bp-flip events %v, want [sparse gemm-in-parallel]", flips)
	}
}

// TestAutoConvReplansInvalidatedVerdict: once the planner flips a verdict's
// staleness flag, the very next call of that phase re-plans, FP and BP alike
// and for each bucket of an inference executor; until then nothing does.
func TestAutoConvReplansInvalidatedVerdict(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	r := rng.New(5)
	w := conv.RandWeights(r, s)
	ins, eos := sampleBatch(r, s, 3, 0.2)
	outs := []*tensor.Tensor{conv.NewOutput(s), conv.NewOutput(s), conv.NewOutput(s)}
	dw := conv.NewWeights(s)

	pl := &bandPlanner{}
	a := NewAutoConv(s, exec.New(2), pl)
	for i := 0; i < 2; i++ {
		a.Forward(outs, ins, w, engine.Epilogue{})
		a.Backward(nil, dw, eos, ins, w, 0.2)
	}
	pl.invalidate()
	a.Forward(outs, ins, w, engine.Epilogue{})
	if len(pl.fpBuckets) != 2 || len(pl.bpEOs) != 1 {
		t.Fatalf("after invalidation the next Forward made %d FP and %d BP requests, want 2 and 1",
			len(pl.fpBuckets), len(pl.bpEOs))
	}
	a.Backward(nil, dw, eos, ins, w, 0.2)
	a.Forward(outs, ins, w, engine.Epilogue{})
	a.Backward(nil, dw, eos, ins, w, 0.2)
	if len(pl.fpBuckets) != 2 || len(pl.bpEOs) != 2 {
		t.Fatalf("after invalidation: %d FP and %d BP requests, want 2 and 2", len(pl.fpBuckets), len(pl.bpEOs))
	}

	pl = &bandPlanner{}
	inf := NewAutoConv(s, exec.New(2), pl, 1, 4)
	one, three := outs[:1], outs
	inf.Forward(one, ins[:1], w, engine.Epilogue{})
	inf.Forward(three, ins, w, engine.Epilogue{})
	pl.invalidate()
	inf.Forward(one, ins[:1], w, engine.Epilogue{})
	if got := pl.fpBuckets; len(got) != 3 || got[2] != 1 {
		t.Fatalf("bucket requests %v, want [1 4 1]: only the called bucket re-plans", got)
	}
	inf.Forward(three, ins, w, engine.Epilogue{})
	inf.Forward(one, ins[:1], w, engine.Epilogue{})
	if got := pl.fpBuckets; len(got) != 4 || got[3] != 4 {
		t.Fatalf("bucket requests %v, want [1 4 1 4]", got)
	}
}

// TestAutoConvPlansWhatItDeploys: a layer driven with nil eis (a network's
// first layer) asks the planner for a verdict measured without Eq. 3, at
// first use and at a band re-plan alike; a layer driven with eis never does.
func TestAutoConvPlansWhatItDeploys(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	ins := []*tensor.Tensor{conv.RandInput(rng.New(9), s)}
	dw := conv.NewWeights(s)
	for _, eis := range [][]*tensor.Tensor{nil, {conv.NewInput(s)}} {
		pl := &bandPlanner{}
		a := NewAutoConv(s, exec.New(1), pl)
		for _, sp := range []float64{0.1, 0.9, 0.9, 0.9} {
			a.Backward(eis, dw, []*tensor.Tensor{eoAt(s, sp)}, ins, conv.NewWeights(s), sp)
		}
		if len(pl.bpOpts) != 2 {
			t.Fatalf("planner saw %d BP requests, want 2 (first use + band re-plan)", len(pl.bpOpts))
		}
		for i, opts := range pl.bpOpts {
			if opts.NoInputGrad != (eis == nil) {
				t.Errorf("request %d with eis nil=%v: NoInputGrad = %v", i, eis == nil, opts.NoInputGrad)
			}
		}
	}
}

// TestFixedPlannerPinsWithoutMeasuring: a layer under FixedPlanner runs the
// named strategy per phase, records no tune span and no choice event, and
// its band re-plans never flip.
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
	for i, sp := range []float64{0.1, 0.1, 0.9, 0.9, 0.9, 0.4, 0.4, 0.4} {
		if ran, _ := a.Forward(outs, ins, w, engine.Epilogue{}); ran.Strategy().Name != "stencil" {
			t.Fatalf("batch %d: FP ran %q, want stencil", i, ran.Strategy().Name)
		}
		if ran, _ := a.Backward(nil, dw, eos, ins, w, sp); ran.Strategy().Name != "sparse" {
			t.Fatalf("batch %d: BP ran %q, want sparse", i, ran.Strategy().Name)
		}
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
