// Package core is spg-CNN's scheduler (§4.4): given a convolution layer,
// it generates code for every candidate technique, measures each on sample
// inputs, and deploys the fastest — separately for forward propagation and
// back-propagation — then re-plans a layer's BP choice inside its own call
// when the layer's error-gradient sparsity changes band, because sparsity
// drifts as training converges (Fig. 3b).
//
// The candidate set matches the paper, plus the engines this repo has
// grown since (prepacked GEMM, the channel-blocked direct kernel, and the
// sparse-weight kernel for pruned layers):
//
//	FP: Parallel-GEMM, GEMM-in-Parallel, Stencil-Kernel, Packed, Blocked, Sparse-Weight
//	BP: Parallel-GEMM, GEMM-in-Parallel, Sparse-Kernel, Packed
//
// A layer reaches its kernel through exactly one path: nn.Conv holds an
// AutoConv, the AutoConv asks its Planner what to deploy per phase, and the
// answer is an Exec — one strategy instantiated for the spec under the
// layer's execution context. ChooseFP/ChooseBP are the measurement passes a
// tuning planner (internal/plan) runs; FixedPlanner is the planner of a
// pinned layer.
package core

import (
	"fmt"

	"spgcnn/internal/batchpar"
	"spgcnn/internal/blockedconv"
	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/refconv"
	"spgcnn/internal/spkernel"
	"spgcnn/internal/spweight"
	"spgcnn/internal/stencil"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// Strategy is one complete way to execute a layer phase over a batch: a
// kernel generator plus a batch schedule. BatchParallel strategies run one
// single-threaded kernel per worker on different inputs (GEMM-in-Parallel
// scheduling); non-batch-parallel strategies process inputs sequentially
// with a kernel that parallelizes internally (Parallel-GEMM scheduling).
type Strategy struct {
	Name          string
	Gen           engine.Generator
	BatchParallel bool
	// Layout is the activation layout the strategy's kernel computes in
	// internally (every strategy takes and returns NCHW at the batch seam).
	// The channel-blocked engine reports tensor.NCHW8; the zero value is
	// the canonical NCHW. spg-plan prints it beside the model ranking.
	Layout tensor.Layout
}

// Supports reports whether the strategy's engine can execute the given
// geometry (the engine.Supports capability seam).
func (st Strategy) Supports(s conv.Spec) bool { return engine.Supports(st.Gen, s) }

// ReferenceStrategy returns the last-resort candidate: the conv reference
// oracle behind batch-parallel scheduling. It executes every valid spec —
// including padded/dilated/grouped geometry no optimized engine claims —
// so filtered candidate sets are never empty.
func ReferenceStrategy() Strategy {
	return Strategy{Name: refconv.Name, Gen: refconv.Generator(), BatchParallel: true}
}

// SupportedStrategies filters candidates down to those whose engines
// support s. When no candidate survives, the reference strategy is
// returned alone so every valid spec remains runnable.
func SupportedStrategies(candidates []Strategy, s conv.Spec) []Strategy {
	kept := make([]Strategy, 0, len(candidates))
	for _, st := range candidates {
		if st.Supports(s) {
			kept = append(kept, st)
		}
	}
	if len(kept) == 0 {
		kept = append(kept, ReferenceStrategy())
	}
	return kept
}

// FPStrategies returns the paper's forward-propagation candidates for the
// given worker count.
func FPStrategies(workers int) []Strategy {
	return []Strategy{
		{Name: "parallel-gemm", Gen: unfoldgemm.Generator(workers)},
		{Name: "gemm-in-parallel", Gen: unfoldgemm.Generator(1), BatchParallel: true},
		{Name: "stencil", Gen: stencil.Generator(), BatchParallel: true},
		{Name: "gemm-packed", Gen: unfoldgemm.PackedGenerator(workers)},
		{Name: "blocked", Gen: blockedconv.Generator(), BatchParallel: true, Layout: tensor.NCHW8},
		{Name: "sparse-weight", Gen: spweight.Generator(), BatchParallel: true},
	}
}

// BPStrategies returns the paper's back-propagation candidates for the
// given worker count.
func BPStrategies(workers int) []Strategy {
	return []Strategy{
		{Name: "parallel-gemm", Gen: unfoldgemm.Generator(workers)},
		{Name: "gemm-in-parallel", Gen: unfoldgemm.Generator(1), BatchParallel: true},
		{Name: "sparse", Gen: spkernel.Generator(), BatchParallel: true},
		{Name: "gemm-packed", Gen: unfoldgemm.PackedGenerator(workers)},
	}
}

// StrategyByName resolves a strategy name (from either candidate set, or
// the reference fallback) at the given worker count.
func StrategyByName(name string, workers int) (Strategy, bool) {
	if workers < 1 {
		workers = 1
	}
	for _, st := range append(FPStrategies(workers), BPStrategies(workers)...) {
		if st.Name == name {
			return st, true
		}
	}
	if ref := ReferenceStrategy(); ref.Name == name {
		return ref, true
	}
	return Strategy{}, false
}

// Exec executes one layer phase over batches according to a strategy. All
// scratch comes from the execution context's arena and every pass is timed
// into the context's probe, so deployed execs feed the same instrumentation
// the measurement pass uses.
type Exec struct {
	strategy Strategy
	spec     conv.Spec
	ctx      *exec.Ctx
	k        engine.Kernel
	// fused is the kernel's one-call backward pass, nil when it has none.
	fused engine.FusedBackward

	// Precomputed span events keep the per-call probe path allocation-free.
	evFP, evBPI, evBPW, evBP exec.Event
}

// NewExecCtx instantiates a strategy for a spec under an execution context.
func NewExecCtx(st Strategy, s conv.Spec, c *exec.Ctx) *Exec {
	s.MustValidate()
	if c == nil {
		c = exec.New(1)
	}
	e := &Exec{strategy: st, spec: s, ctx: c}
	if st.BatchParallel {
		bp := batchpar.New(st.Gen, s)
		e.k, e.fused = bp, bp.Fused()
	} else {
		e.k = st.Gen.New(s)
		e.fused, _ = e.k.(engine.FusedBackward)
	}
	e.evFP = exec.Event{Cat: "core", Name: "core/fp/" + st.Name}
	e.evBPI = exec.Event{Cat: "core", Name: "core/bpi/" + st.Name}
	e.evBPW = exec.Event{Cat: "core", Name: "core/bpw/" + st.Name}
	e.evBP = exec.Event{Cat: "core", Name: "core/bp/" + st.Name}
	return e
}

// Strategy returns the strategy this exec runs.
func (e *Exec) Strategy() Strategy { return e.strategy }

// Ctx returns the execution context this exec runs under.
func (e *Exec) Ctx() *exec.Ctx { return e.ctx }

// Name describes the exec.
func (e *Exec) Name() string {
	return fmt.Sprintf("%s(p=%d)", e.strategy.Name, e.ctx.Workers())
}

// Forward computes outs[i] = conv(ins[i], w).
func (e *Exec) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	start := e.ctx.Probe().Now()
	e.k.ForwardBatch(e.ctx, outs, ins, w)
	e.ctx.Probe().RecordSince(e.evFP, start)
}

// BackwardInput computes eis[i] = corr(eos[i], w).
func (e *Exec) BackwardInput(eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	start := e.ctx.Probe().Now()
	e.k.BackwardInputBatch(e.ctx, eis, eos, w)
	e.ctx.Probe().RecordSince(e.evBPI, start)
}

// BackwardWeights computes dw = Σ_i grad(eos[i], ins[i]). dw is
// overwritten.
func (e *Exec) BackwardWeights(dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	start := e.ctx.Probe().Now()
	e.k.BackwardWeightsBatch(e.ctx, dw, eos, ins)
	e.ctx.Probe().RecordSince(e.evBPW, start)
}

// Backward runs one layer's whole backward pass: eis[i] = corr(eos[i], w)
// and dw = Σ_i grad(eos[i], ins[i]), both overwritten. A nil eis means the
// input gradient is not needed (the layer is the network's first), and Eq. 3
// is skipped. Kernels with a fused entry (engine.FusedBackward) run it as
// one span "core/bp/<strategy>"; the rest fall back to BackwardInput +
// BackwardWeights with their own spans.
func (e *Exec) Backward(eis []*tensor.Tensor, dw *tensor.Tensor, eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	if e.fused == nil {
		if eis != nil {
			e.BackwardInput(eis, eos, w)
		}
		e.BackwardWeights(dw, eos, ins)
		return
	}
	start := e.ctx.Probe().Now()
	e.fused.BackwardBatch(e.ctx, eis, dw, eos, ins, w)
	e.ctx.Probe().RecordSince(e.evBP, start)
}

// backward is Backward without the probe spans: the measurement pass times
// exactly what a deployment will run, under its own "tune/bp" span.
func (e *Exec) backward(eis []*tensor.Tensor, dw *tensor.Tensor, eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	if e.fused != nil {
		e.fused.BackwardBatch(e.ctx, eis, dw, eos, ins, w)
		return
	}
	if eis != nil {
		e.k.BackwardInputBatch(e.ctx, eis, eos, w)
	}
	e.k.BackwardWeightsBatch(e.ctx, dw, eos, ins)
}

// Timing records one candidate's measured cost.
type Timing struct {
	Strategy Strategy
	Seconds  float64
}

// Selection is the scheduler's verdict for one layer phase: the chosen
// exec plus the full measurement table (reported by spg-bench and Fig. 8).
type Selection struct {
	Chosen  *Exec
	Timings []Timing
}

// Best returns the winning timing entry.
func (s Selection) Best() Timing {
	best := s.Timings[0]
	for _, t := range s.Timings[1:] {
		if t.Seconds < best.Seconds {
			best = t
		}
	}
	return best
}

// TuneOptions configures the measurement pass.
type TuneOptions struct {
	// Reps is the number of timed repetitions per candidate (default 3).
	Reps int
	// Batch, when positive, names the batch-size bucket this selection is
	// for. It does not change how the measurement runs (the sample batch
	// already has the bucket's size) — it is the extra cache-key component
	// plan.Planner stores the verdict under, so inference deployments keyed
	// per batch-size bucket never collide with training verdicts (Batch 0).
	Batch int
	// NoInputGrad marks a BP selection for a layer whose input gradient
	// nobody reads (the network's first layer; AutoConv sets it from a nil
	// eis, never a caller by hand): candidates are measured without Eq. 3,
	// as they will be deployed. The ranking differs from the full pass, so
	// plan.Planner keys the verdict on it and a same-spec mid-network layer
	// never deploys a first-layer verdict.
	NoInputGrad bool
}

func (o TuneOptions) reps() int {
	if o.Reps <= 0 {
		return 3
	}
	return o.Reps
}

// ChooseFP measures every FP strategy on the sample batch under ctx and
// returns the fastest, instantiated and ready to deploy. Every candidate is
// timed through ctx.Measure (spans "tune/fp/<name>") and the verdict is
// recorded as a probe choice.
func ChooseFP(strategies []Strategy, s conv.Spec, c *exec.Ctx,
	ins []*tensor.Tensor, w *tensor.Tensor, opts TuneOptions) Selection {
	if len(strategies) == 0 {
		panic("core: ChooseFP with no candidates")
	}
	if c == nil {
		c = exec.New(1)
	}
	outs := make([]*tensor.Tensor, len(ins))
	for i := range outs {
		outs[i] = conv.NewOutput(s)
	}
	var sel Selection
	var bestExec *Exec
	bestT := 0.0
	for _, st := range strategies {
		e := NewExecCtx(st, s, c)
		t := c.Measure(exec.Event{Cat: "tune", Name: "tune/fp/" + st.Name}, opts.reps(), func() {
			e.k.ForwardBatch(c, outs, ins, w)
		})
		sel.Timings = append(sel.Timings, Timing{Strategy: st, Seconds: t})
		if bestExec == nil || t < bestT {
			bestExec, bestT = e, t
		}
	}
	sel.Chosen = bestExec
	c.Probe().Record(exec.ChoiceEvent("fp", bestExec.strategy.Name, bestT))
	return sel
}

// ChooseBP measures every BP strategy (input-error plus delta-weights, the
// two Eq. 3/Eq. 4 computations of one layer's backward pass, or Eq. 4 alone
// under opts.NoInputGrad) on sample error gradients whose sparsity reflects
// the current training phase. Candidates run exactly as Exec.Backward will
// deploy them.
func ChooseBP(strategies []Strategy, s conv.Spec, c *exec.Ctx,
	eos, ins []*tensor.Tensor, w *tensor.Tensor, opts TuneOptions) Selection {
	if len(strategies) == 0 {
		panic("core: ChooseBP with no candidates")
	}
	if c == nil {
		c = exec.New(1)
	}
	var eis []*tensor.Tensor
	if !opts.NoInputGrad {
		eis = make([]*tensor.Tensor, len(eos))
		for i := range eis {
			eis[i] = conv.NewInput(s)
		}
	}
	dw := conv.NewWeights(s)
	var sel Selection
	var bestExec *Exec
	bestT := 0.0
	for _, st := range strategies {
		e := NewExecCtx(st, s, c)
		t := c.Measure(exec.Event{Cat: "tune", Name: "tune/bp/" + st.Name}, opts.reps(), func() {
			e.backward(eis, dw, eos, ins, w)
		})
		sel.Timings = append(sel.Timings, Timing{Strategy: st, Seconds: t})
		if bestExec == nil || t < bestT {
			bestExec, bestT = e, t
		}
	}
	sel.Chosen = bestExec
	c.Probe().Record(exec.ChoiceEvent("bp", bestExec.strategy.Name, bestT))
	return sel
}
