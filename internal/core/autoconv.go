package core

import (
	"fmt"
	"sort"
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// recheckEpochs is the BP re-measurement period in epochs — §4.4's
// "pre-specified number of epochs".
const recheckEpochs = 2

// AutoConv is the one convolution-layer executor: it asks its Planner for a
// strategy per phase on first use and runs the deployed Exec on every batch
// after. Because §4.4 observes that the relative ranking of BP techniques
// changes as error-gradient sparsity grows during training, the BP choice is
// re-planned every recheckEpochs epochs against the most recent real
// gradients. Built with a bucket list it is the forward-only serving
// executor: one FP verdict per batch-size bucket instead of one per layer,
// because strategy ranking shifts with batch size (the batch-parallel
// schedules starve below the worker count; per-call overheads amortize
// differently) and a serving process sees every size its admission queue
// produces.
//
// Every measurement and deployment runs under one execution context, so the
// tuning passes warm the same arena the deployed kernels draw from and all
// decisions land in the shared probe.
type AutoConv struct {
	spec    conv.Spec
	ctx     *exec.Ctx
	planner Planner
	buckets []int // ascending; non-empty marks the inference executor

	mu       sync.Mutex
	fps      map[int]*Exec // deployed FP exec per bucket (training: bucket 0)
	bp       *Exec         // deployed BP exec, nil until planned
	fpSel    Selection
	bpSel    Selection
	epochs   int              // epochs completed since the last BP check
	lastEOs  []*tensor.Tensor // retained sample gradients for re-tuning
	lastIns  []*tensor.Tensor
	lastWRef *tensor.Tensor
	lastNoEI bool // the last Backward had nil eis: re-tune without Eq. 3 too
}

// NewAutoConv builds a layer executor that runs under c and asks pl (never
// nil) for every strategy. Without buckets it is the training scheduler: one
// FP verdict measured on a sample truncated to the worker count, one BP
// verdict re-checked at epoch boundaries. With buckets it is forward-only:
// each batch is planned under the smallest bucket that fits it (its own size
// when none does), keyed TuneOptions{Batch: bucket}, so replicas — and later
// processes through the plan cache file — deploy each bucket with zero
// measurement.
func NewAutoConv(s conv.Spec, c *exec.Ctx, pl Planner, buckets ...int) *AutoConv {
	s.MustValidate()
	bs := append([]int(nil), buckets...)
	sort.Ints(bs)
	return &AutoConv{spec: s, ctx: c, planner: pl, buckets: bs, fps: make(map[int]*Exec)}
}

// Spec returns the layer geometry.
func (a *AutoConv) Spec() conv.Spec { return a.spec }

// Ctx returns the execution context the layer runs under.
func (a *AutoConv) Ctx() *exec.Ctx { return a.ctx }

// Forward executes the batch, planning on first use, and returns the exec
// that ran it.
func (a *AutoConv) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor) *Exec {
	bucket, sample := 0, ins
	if len(a.buckets) > 0 {
		bucket = len(ins)
		if i := sort.SearchInts(a.buckets, bucket); i < len(a.buckets) {
			bucket = a.buckets[i]
		}
	} else if p := a.ctx.Workers(); len(sample) > p {
		sample = sample[:p]
	}
	a.mu.Lock()
	fp := a.fps[bucket]
	if fp == nil {
		a.fpSel = a.planner.PlanFP(a.spec, a.ctx, sample, w, TuneOptions{Batch: bucket}).Selection
		fp = a.fpSel.Chosen
		a.fps[bucket] = fp
	}
	a.mu.Unlock()
	fp.Forward(outs, ins, w)
	return fp
}

// planBP asks the planner for a BP verdict on the given sample. Called
// with a.mu held.
func (a *AutoConv) planBP(eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	a.bpSel = a.planner.PlanBP(a.spec, a.ctx, eos, ins, w, TuneOptions{NoInputGrad: a.lastNoEI}).Selection
	a.bp = a.bpSel.Chosen
}

// Backward executes both BP computations for the batch (Eq. 4 alone when
// eis is nil — see Exec.Backward), planning on first use with the batch's
// real error gradients (so measured sparsity is the training run's actual
// sparsity), and returns the exec that ran it.
func (a *AutoConv) Backward(eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor) *Exec {
	if len(a.buckets) > 0 {
		panic(fmt.Sprintf("core: Backward on inference-only conv executor (spec %v)", a.spec))
	}
	n := min(len(eos), a.ctx.Workers())
	a.mu.Lock()
	a.lastNoEI = eis == nil
	if a.bp == nil {
		a.planBP(eos[:n], ins[:n], w)
	}
	// Retain the freshest gradients for epoch-boundary re-tuning. The
	// caller's tensors are recycled batch storage — the arena (or the next
	// minibatch) rewrites them long before EpochEnd runs — so the sample
	// must be copied into scheduler-owned tensors, not aliased.
	a.lastEOs = retainSamples(a.lastEOs, eos[:n])
	a.lastIns = retainSamples(a.lastIns, ins[:n])
	a.lastWRef = w
	bp := a.bp
	a.mu.Unlock()
	bp.Backward(eis, dw, eos, ins, w)
	return bp
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
// recheckEpochs epochs the BP strategy is re-planned against the most
// recent gradients and the deployment switches if the ranking changed; a
// switch is recorded in the probe as a "bp-flip" choice event.
func (a *AutoConv) EpochEnd() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epochs++
	if a.bp == nil || a.epochs < recheckEpochs || len(a.lastEOs) == 0 {
		return
	}
	a.epochs = 0
	prev := a.bp.Strategy().Name
	// A caching planner keys BP verdicts on the gradients' sparsity band, so
	// this is a zero-cost cache hit while sparsity stays in-band and a fresh
	// measurement the moment training crosses a band boundary — §4.4's
	// re-check with the redundant in-band re-measurements deduplicated away.
	a.planBP(a.lastEOs, a.lastIns, a.lastWRef)
	if next := a.bp.Strategy().Name; next != prev {
		a.ctx.Probe().RecordChoice("bp-flip", next, a.bpSel.Best().Seconds)
	}
}

// Retune drops the deployment for the given phase ("fp", "bp", or "" for
// both): the next Forward / Backward re-enters the planner instead of
// running the deployed strategy. Combined with plan.Planner invalidation
// this is the drift observatory's re-tune loop — the planner alone would
// only re-measure at the next epoch-boundary re-check, while dropping the
// deployment re-plans on the very next batch. Calls in flight keep the exec
// they already hold.
func (a *AutoConv) Retune(phase string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if phase == "fp" || phase == "" {
		clear(a.fps)
	}
	if phase == "bp" || phase == "" {
		a.bp = nil
	}
}

// FPSelection returns the most recent FP verdict (zero value before the
// first planned batch).
func (a *AutoConv) FPSelection() Selection {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fpSel
}

// BPSelection returns the most recent BP verdict.
func (a *AutoConv) BPSelection() Selection {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bpSel
}

// PlannedBuckets reports which batch-size buckets have a deployed strategy
// and the strategy each runs — the serving analogue of FPSelection. Nil for
// a training executor.
func (a *AutoConv) PlannedBuckets() map[int]string {
	if len(a.buckets) == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[int]string, len(a.fps))
	for bk, e := range a.fps {
		out[bk] = e.Strategy().Name
	}
	return out
}
