// Package batchpar implements the paper's GEMM-in-Parallel scheduling
// (§4.1): instead of splitting one convolution's GEMM across P cores (and
// paying the §3.2 per-core AIT reduction), it runs P independent
// single-threaded kernels on P different training inputs.
//
// The executor is kernel-agnostic: the same batch schedule carries
// unfold+GEMM kernels (the literal GEMM-in-Parallel of §4.1),
// stencil kernels (§4.3's FP deployment) and sparse kernels (§4.2's BP
// deployment). Because kernels are stateless plans, one shared instance
// serves every worker; each worker runs its contiguous chunk of the batch
// through the context's serial view, so per-core AIT stays at the
// single-kernel level while all scratch still comes from the one shared
// arena.
package batchpar

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
)

// Executor schedules a per-input kernel across batches of training inputs.
// It is itself an engine.Kernel, so batch-parallel deployments compose
// with everything that consumes the seam.
type Executor struct {
	spec conv.Spec
	k    engine.Kernel
	name string
}

// New builds an executor fanning gen's kernel for spec s across the
// workers of whatever context each call supplies.
func New(gen engine.Generator, s conv.Spec) *Executor {
	s.MustValidate()
	e := &Executor{spec: s, k: gen.New(s)}
	e.name = fmt.Sprintf("batch-parallel[%s]", e.k.Name())
	return e
}

// Name implements engine.Kernel.
func (e *Executor) Name() string { return e.name }

// Spec implements engine.Kernel.
func (e *Executor) Spec() conv.Spec { return e.spec }

// ForwardBatch computes outs[i] = conv(ins[i], w) for the whole batch.
// Inputs are claimed in dynamically-sized contiguous chunks (guided
// self-scheduling) rather than one static chunk per worker: per-input cost
// is ragged — sparse back-ends especially so — and dynamic claiming lets
// fast workers absorb the tail. Each item's result is computed
// independently by the stateless inner kernel, so chunk boundaries cannot
// affect the bits.
func (e *Executor) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("batchpar: ForwardBatch batch length mismatch")
	}
	serial := c.Serial()
	par.ForDynamic(len(ins), c.Workers(), 1, func(lo, hi int) {
		e.k.ForwardBatch(serial, outs[lo:hi], ins[lo:hi], w)
	})
}

// BackwardInputBatch computes eis[i] = corr(eos[i], w) for the whole batch,
// with the same dynamic chunking as ForwardBatch (error-gradient sparsity
// makes per-input BP cost the most ragged of the three phases).
func (e *Executor) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("batchpar: BackwardInputBatch batch length mismatch")
	}
	serial := c.Serial()
	par.ForDynamic(len(eos), c.Workers(), 1, func(lo, hi int) {
		e.k.BackwardInputBatch(serial, eis[lo:hi], eos[lo:hi], w)
	})
}

// BackwardWeightsBatch computes dw = Σ_i grad(eos[i], ins[i]): each worker
// sums its chunk's gradients into a private accumulator (the inner kernel's
// batch-sum semantics do the per-chunk reduction), then the per-worker
// partials are reduced into dw. dw is overwritten.
func (e *Executor) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("batchpar: BackwardWeightsBatch batch length mismatch")
	}
	e.sumChunks(c, dw, len(eos), func(serial *exec.Ctx, acc *tensor.Tensor, lo, hi int) {
		e.k.BackwardWeightsBatch(serial, acc, eos[lo:hi], ins[lo:hi])
	})
}

// Fused returns the executor's engine.FusedBackward entry — the wrapped
// kernel's fused backward pass fanned out over the same static partition as
// BackwardWeightsBatch, so dw's reduction order is the same whichever seam
// the caller uses — or nil when the wrapped kernel has none.
func (e *Executor) Fused() engine.FusedBackward {
	k, ok := e.k.(engine.FusedBackward)
	if !ok {
		return nil
	}
	return fusedExecutor{e, k}
}

type fusedExecutor struct {
	e *Executor
	k engine.FusedBackward
}

func (f fusedExecutor) BackwardBatch(c *exec.Ctx, eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(eos) != len(ins) || (eis != nil && len(eis) != len(eos)) {
		panic("batchpar: BackwardBatch batch length mismatch")
	}
	f.e.sumChunks(c, dw, len(eos), func(serial *exec.Ctx, acc *tensor.Tensor, lo, hi int) {
		var chunk []*tensor.Tensor
		if eis != nil {
			chunk = eis[lo:hi]
		}
		f.k.BackwardBatch(serial, chunk, acc, eos[lo:hi], ins[lo:hi], w)
	})
}

// sumChunks runs fn over the STATIC partition of n samples, handing worker 0
// dw itself and every other worker an arena-backed accumulator to overwrite
// with its chunk's batch-summed weight gradient, then reduces the partials
// into dw in worker order. Unlike FP/BPI this cannot claim chunks
// dynamically: the grouping of partial sums follows the chunk boundaries,
// so dynamic chunking would change the floating-point reduction order run
// to run.
func (e *Executor) sumChunks(c *exec.Ctx, dw *tensor.Tensor, n int,
	fn func(serial *exec.Ctx, acc *tensor.Tensor, lo, hi int)) {
	s := e.spec
	conv.CheckWeights(s, dw)
	if n == 0 {
		dw.Zero()
		return
	}
	used := min(c.Workers(), n)
	serial := c.Serial()
	if used <= 1 {
		fn(serial, dw, 0, n)
		return
	}
	var accArr [64]*tensor.Tensor
	accs := accArr[:0]
	if used > len(accArr) {
		accs = make([]*tensor.Tensor, 0, used)
	}
	// Worker 0 writes dw directly; the rest get arena accumulators.
	accs = append(accs, dw)
	for i := 1; i < used; i++ {
		accs = append(accs, c.GetTensor(s.WeightDims()...))
	}
	par.ForWorkers(n, used, func(worker, lo, hi int) {
		fn(serial, accs[worker], lo, hi)
	})
	for i := 1; i < used; i++ {
		dw.AddScaled(accs[i], 1)
		c.PutTensor(accs[i])
	}
}
