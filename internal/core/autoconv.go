package core

import (
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// AutoConv is a convolution-layer executor that self-tunes: the first
// batch triggers FP and BP measurement passes; thereafter the winning
// strategies execute every batch. Because §4.4 observes that the relative
// ranking of BP techniques changes as error-gradient sparsity grows during
// training, the BP choice is re-measured every RecheckEpochs epochs using
// the most recent real gradients.
//
// Every measurement and deployment runs under one execution context, so the
// tuning passes warm the same arena the deployed kernels draw from and all
// decisions land in the shared probe.
type AutoConv struct {
	spec    conv.Spec
	ctx     *exec.Ctx
	opts    AutoOptions
	planner Planner

	mu       sync.Mutex
	fp       *Exec
	bp       *Exec
	fpSel    Selection
	bpSel    Selection
	epochs   int // epochs completed since the last BP check
	tunedFP  bool
	tunedBP  bool
	lastEOs  []*tensor.Tensor // retained sample gradients for re-tuning
	lastIns  []*tensor.Tensor
	lastWRef *tensor.Tensor
	lastNoEI bool // the last Backward had nil eis: re-tune without Eq. 3 too
}

// AutoOptions configures an AutoConv.
type AutoOptions struct {
	// Ctx is the execution context measurements and deployments run under.
	// Nil builds a private context with the worker count passed to
	// NewAutoConv.
	Ctx *exec.Ctx
	// RecheckEpochs is the BP re-measurement period in epochs
	// (default 2; §4.4's "pre-specified number of epochs").
	RecheckEpochs int
	// Tune configures the measurement passes.
	Tune TuneOptions
	// FP / BP override the candidate strategy sets (defaults:
	// FPStrategies / BPStrategies). Only consulted when Planner is nil;
	// an injected planner carries its own candidate sets.
	FP, BP []Strategy
	// Planner owns strategy selection. Nil falls back to measuring every
	// candidate on every selection request — the pre-planner behavior.
	// Injecting one (internal/plan) adds model-first pruning, in-memory
	// verdict sharing across layers and replicas, and persistence.
	Planner Planner
}

func (o AutoOptions) recheck() int {
	if o.RecheckEpochs <= 0 {
		return 2
	}
	return o.RecheckEpochs
}

// NewAutoConv builds an auto-tuned layer executor. workers is used only
// when opts.Ctx is nil; otherwise the context's worker count governs.
func NewAutoConv(s conv.Spec, workers int, opts AutoOptions) *AutoConv {
	s.MustValidate()
	if opts.Ctx == nil {
		opts.Ctx = exec.New(workers)
	}
	if opts.FP == nil {
		opts.FP = FPStrategies(opts.Ctx.Workers())
	}
	if opts.BP == nil {
		opts.BP = BPStrategies(opts.Ctx.Workers())
	}
	pl := opts.Planner
	if pl == nil {
		pl = measurePlanner{fp: opts.FP, bp: opts.BP}
	}
	return &AutoConv{spec: s, ctx: opts.Ctx, opts: opts, planner: pl}
}

// Spec returns the layer geometry.
func (a *AutoConv) Spec() conv.Spec { return a.spec }

// Ctx returns the execution context the layer runs under.
func (a *AutoConv) Ctx() *exec.Ctx { return a.ctx }

// Forward executes the batch, tuning on first use.
func (a *AutoConv) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	a.mu.Lock()
	if !a.tunedFP {
		sample := ins
		if len(sample) > a.ctx.Workers() {
			sample = sample[:a.ctx.Workers()]
		}
		pd := a.planner.PlanFP(a.spec, a.ctx, sample, w, a.opts.Tune)
		a.fpSel = pd.Selection
		a.fp = a.fpSel.Chosen
		a.tunedFP = true
	}
	fp := a.fp
	a.mu.Unlock()
	fp.Forward(outs, ins, w)
}

// bpTune is the layer's TuneOptions for a BP selection.
func (a *AutoConv) bpTune() TuneOptions {
	opts := a.opts.Tune
	opts.NoInputGrad = a.lastNoEI
	return opts
}

// Backward executes both BP computations for the batch (Eq. 4 alone when
// eis is nil — see Exec.Backward), tuning on first use with the batch's
// real error gradients (so measured sparsity is the training run's actual
// sparsity).
func (a *AutoConv) Backward(eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	a.mu.Lock()
	a.lastNoEI = eis == nil
	if !a.tunedBP {
		n := len(eos)
		if n > a.ctx.Workers() {
			n = a.ctx.Workers()
		}
		pd := a.planner.PlanBP(a.spec, a.ctx, eos[:n], ins[:n], w, a.bpTune())
		a.bpSel = pd.Selection
		a.bp = a.bpSel.Chosen
		a.tunedBP = true
	}
	// Retain the freshest gradients for epoch-boundary re-tuning. The
	// caller's tensors are recycled batch storage — the arena (or the next
	// minibatch) rewrites them long before EpochEnd runs — so the sample
	// must be copied into scheduler-owned tensors, not aliased.
	n := len(eos)
	if n > a.ctx.Workers() {
		n = a.ctx.Workers()
	}
	a.lastEOs = retainSamples(a.lastEOs, eos[:n])
	a.lastIns = retainSamples(a.lastIns, ins[:n])
	a.lastWRef = w
	bp := a.bp
	a.mu.Unlock()
	bp.Backward(eis, dw, eos, ins, w)
}

// retainSamples copies src into dst, reusing dst's tensors when shapes
// match so steady-state retention is allocation-free.
func retainSamples(dst, src []*tensor.Tensor) []*tensor.Tensor {
	if cap(dst) < len(src) {
		dst = append(dst[:cap(dst)], make([]*tensor.Tensor, len(src)-cap(dst))...)
	}
	dst = dst[:len(src)]
	for i, s := range src {
		if dst[i] == nil || !dst[i].SameShape(s) {
			dst[i] = s.Clone()
		} else {
			copy(dst[i].Data, s.Data)
		}
	}
	return dst
}

// EpochEnd notifies the scheduler that a training epoch finished. Every
// RecheckEpochs epochs the BP strategies are re-measured against the most
// recent gradients and the deployment switches if the ranking changed; a
// switch is recorded in the probe as a "bp-flip" choice event.
func (a *AutoConv) EpochEnd() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epochs++
	if !a.tunedBP || a.epochs < a.opts.recheck() || len(a.lastEOs) == 0 {
		return
	}
	a.epochs = 0
	prev := a.bpSel.Chosen.Strategy().Name
	// Re-plan against the freshest gradients. A caching planner keys BP
	// verdicts on the gradients' sparsity band, so this is a zero-cost
	// cache hit while sparsity stays in-band and a fresh measurement the
	// moment training crosses a band boundary — §4.4's re-check with the
	// redundant in-band re-measurements deduplicated away.
	pd := a.planner.PlanBP(a.spec, a.ctx, a.lastEOs, a.lastIns, a.lastWRef, a.bpTune())
	a.bpSel = pd.Selection
	a.bp = a.bpSel.Chosen
	if next := a.bpSel.Chosen.Strategy().Name; next != prev {
		a.ctx.Probe().RecordChoice("bp-flip", next, a.bpSel.Best().Seconds)
	}
}

// Retune clears the tuning latch for the given phase ("fp", "bp", or ""
// for both): the next Forward / Backward re-enters the planner instead of
// running the deployed strategy. Combined with plan.Planner invalidation
// this is the drift observatory's re-tune loop — the planner alone would
// only re-measure at the next epoch-boundary re-check, while clearing the
// latch re-plans on the very next batch. The currently deployed execs stay
// in place until then, so calls in flight are unaffected.
func (a *AutoConv) Retune(phase string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if phase == "fp" || phase == "" {
		a.tunedFP = false
	}
	if phase == "bp" || phase == "" {
		a.tunedBP = false
	}
}

// FPSelection returns the most recent FP measurement table (zero value
// before first tuning).
func (a *AutoConv) FPSelection() Selection {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fpSel
}

// BPSelection returns the most recent BP measurement table.
func (a *AutoConv) BPSelection() Selection {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bpSel
}
