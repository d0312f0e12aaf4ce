package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// bandPatience is how many consecutive batches must carry an EO-sparsity
// band other than the deployed BP verdict's before the layer re-plans — the
// observatory's consecutive-breach rule (obs.DefaultWindow), so sparsity
// hovering at a band edge does not flap the deployment.
const bandPatience = 3

// AutoConv is the one convolution-layer executor: it asks its Planner for a
// strategy per phase on first use and runs the deployed Exec on every batch
// after. A deployment is dropped in one place, the top of the layer's own
// call, in two cases: the planner invalidated the verdict (Planned.Stale),
// or — BP only — the batch's error-gradient sparsity has left the band the
// verdict was deployed at for bandPatience batches running, because §4.4
// observes that the ranking of BP techniques changes as gradients sparsify
// during training. Either way the phase is re-planned on the live batch,
// exactly as on first use. Built with a bucket list it is the forward-only
// serving executor: one FP verdict per batch-size bucket instead of one per
// layer, because strategy ranking shifts with batch size (the
// batch-parallel schedules starve below the worker count; per-call
// overheads amortize differently) and a serving process sees every size its
// admission queue produces.
//
// Every measurement and deployment runs under one execution context, so the
// tuning passes warm the same arena the deployed kernels draw from and all
// decisions land in the shared probe.
type AutoConv struct {
	spec    conv.Spec
	ctx     *exec.Ctx
	planner Planner
	buckets []int // ascending; non-empty marks the inference executor

	mu      sync.Mutex
	fps     map[int]deployed // deployed FP verdict per bucket (training: bucket 0)
	bp      deployed         // deployed BP verdict, zero until planned
	fpSel   Selection
	bpSel   Selection
	bpBand  int // batch-mean EO-sparsity band at the moment BP was planned
	offBand int // consecutive batches whose band differed from bpBand
}

// deployed is one held verdict: the exec and the planner's staleness flag.
type deployed struct {
	ex    *Exec
	stale *atomic.Bool
}

// live reports whether the verdict is planned and not invalidated.
func (d deployed) live() bool { return d.ex != nil && (d.stale == nil || !d.stale.Load()) }

// NewAutoConv builds a layer executor that runs under c and asks pl (never
// nil) for every strategy. Without buckets it is the training scheduler: one
// FP verdict measured on a sample truncated to the worker count, one BP
// verdict re-planned when gradient sparsity changes band. With buckets it is
// forward-only: each batch is planned under the smallest bucket that fits it
// (its own size when none does), keyed TuneOptions{Batch: bucket}, so
// replicas — and later processes through the plan cache file — deploy each
// bucket with zero measurement.
func NewAutoConv(s conv.Spec, c *exec.Ctx, pl Planner, buckets ...int) *AutoConv {
	s.MustValidate()
	bs := append([]int(nil), buckets...)
	sort.Ints(bs)
	return &AutoConv{spec: s, ctx: c, planner: pl, buckets: bs, fps: make(map[int]deployed)}
}

// Spec returns the layer geometry.
func (a *AutoConv) Spec() conv.Spec { return a.spec }

// Ctx returns the execution context the layer runs under.
func (a *AutoConv) Ctx() *exec.Ctx { return a.ctx }

// Forward executes the batch with the layer's epilogue (Exec.ForwardEpilogue),
// planning on first use and after the verdict is invalidated, and returns
// the exec that ran it and whether this call planned. The planner measures
// the bare convolution: the epilogue is one pass after the kernel, the same
// for every candidate.
func (a *AutoConv) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor, ep engine.Epilogue) (ran *Exec, planned bool) {
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
	planned = !fp.live()
	if planned {
		pd := a.planner.PlanFP(a.spec, a.ctx, sample, w, TuneOptions{Batch: bucket})
		a.fpSel = pd.Selection
		fp = deployed{pd.Chosen, pd.Stale}
		a.fps[bucket] = fp
	}
	a.mu.Unlock()
	fp.ex.ForwardEpilogue(outs, ins, w, ep)
	return fp.ex, planned
}

// Backward executes both BP computations for the batch (Eq. 4 alone when
// eis is nil — see Exec.Backward) and returns the exec that ran it and
// whether this call planned.
// sparsity is the batch-mean EO sparsity the caller counted; the verdict is
// planned with the batch's real error gradients (so measured sparsity is
// the training run's actual sparsity) on first use, after invalidation, and
// once sparsity has sat outside the deployed band for bandPatience batches.
// A re-plan that deploys a different strategy is recorded in the probe as a
// "bp-flip" choice event.
func (a *AutoConv) Backward(eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor, sparsity float64) (ran *Exec, planned bool) {
	if len(a.buckets) > 0 {
		panic(fmt.Sprintf("core: Backward on inference-only conv executor (spec %v)", a.spec))
	}
	n := min(len(eos), a.ctx.Workers())
	band := ait.Band(sparsity)
	a.mu.Lock()
	if band == a.bpBand {
		a.offBand = 0
	} else {
		a.offBand++
	}
	planned = !a.bp.live() || a.offBand >= bandPatience
	if planned {
		prev := a.bp.ex
		pd := a.planner.PlanBP(a.spec, a.ctx, eos[:n], ins[:n], w, TuneOptions{NoInputGrad: eis == nil})
		a.bpSel = pd.Selection
		a.bp = deployed{pd.Chosen, pd.Stale}
		a.bpBand, a.offBand = band, 0
		if next := pd.Chosen.Strategy().Name; prev != nil && next != prev.Strategy().Name {
			a.ctx.Probe().Record(exec.ChoiceEvent("bp-flip", next, pd.Best().Seconds))
		}
	}
	bp := a.bp.ex
	a.mu.Unlock()
	bp.Backward(eis, dw, eos, ins, w)
	return bp, planned
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
	for bk, d := range a.fps {
		out[bk] = d.ex.Strategy().Name
	}
	return out
}
