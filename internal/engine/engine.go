// Package engine defines the seam between spg-CNN's scheduler and its
// convolution kernels.
//
// A Kernel is an executable convolution plan for one fixed Spec — the
// product of one of the framework's "code generators" (§4): the
// unfold+GEMM lowering, the stencil basic-block/schedule generator, or the
// sparse CT-CSR kernel generator. Kernels are batch-first and stateless:
// every entry point takes an exec.Ctx and a batch of samples, and all
// scratch memory (unfold buffers, layout-transformed copies, sparse index
// arrays) is acquired from the context's arena for the duration of the
// call. One kernel instance is therefore cheap to build, cheap to hold,
// and safe to invoke concurrently from many goroutines as long as each
// call gets its own output tensors.
package engine

import (
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/kern"
	"spgcnn/internal/tensor"
)

// Kernel executes the three convolution computations of one training step
// (paper Eqs. 2–4) over a batch of training inputs, for the Spec it was
// generated for. Batch slices are parallel: outs[i] pairs with ins[i].
// Implementations are safe for concurrent use — a kernel is a plan, and
// all per-call state lives on the stack or in c's arena.
type Kernel interface {
	// Name identifies the kernel family and configuration, e.g.
	// "unfold-gemm(serial)" or "stencil(rx=2,ry=4)".
	Name() string

	// Spec returns the convolution geometry the kernel was generated for.
	Spec() conv.Spec

	// ForwardBatch computes outs[i] = conv(ins[i], w) (Eq. 2) for every
	// sample in the batch.
	ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor)

	// BackwardInputBatch computes eis[i] = corr(eos[i], w) (Eq. 3).
	// Each eis[i] is overwritten.
	BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor)

	// BackwardWeightsBatch computes dw = Σ_i grad(eos[i], ins[i]) (Eq. 4),
	// the batch-summed weight gradient. dw is overwritten.
	BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor)
}

// FusedBackward is implemented by kernels that run a layer's whole backward
// pass in one call, sharing work the two separate entry points would each
// redo (the Sparse-Kernel walks the batch once for both equations, with
// one set of pooled scratch). Callers that find the seam
// use it instead of BackwardInputBatch + BackwardWeightsBatch; kernels
// without it keep being called through the pair.
type FusedBackward interface {
	// BackwardBatch computes eis[i] = corr(eos[i], w) (Eq. 3) and
	// dw = Σ_i grad(eos[i], ins[i]) (Eq. 4); both are overwritten. A nil
	// eis means the input gradient is not needed (the network's first
	// layer): Eq. 3 is skipped entirely.
	BackwardBatch(c *exec.Ctx, eis []*tensor.Tensor, dw *tensor.Tensor,
		eos, ins []*tensor.Tensor, w *tensor.Tensor)
}

// Epilogue is what a convolution layer does to each output image after
// the kernel writes it: add a per-feature bias, then, with ReLU, apply the
// rectifier, in one pass over the image (kern.Epilogue per feature plane).
// core.Exec runs it over the batch right after the kernel call, so a conv →
// ReLU pair costs one pass instead of a bias pass plus a ReLU pass. The
// zero value does nothing.
type Epilogue struct {
	Bias []float32 // per output feature; empty adds nothing
	ReLU bool
}

// Empty reports whether the epilogue leaves every output as it is.
func (ep Epilogue) Empty() bool { return len(ep.Bias) == 0 && !ep.ReLU }

// Apply runs the epilogue over one output image, len(ep.Bias) feature
// planes of equal size (or one plane without a bias).
func (ep Epilogue) Apply(out []float32) {
	if len(ep.Bias) == 0 {
		kern.Epilogue(out, 0, ep.ReLU)
		return
	}
	plane := len(out) / len(ep.Bias)
	for f, b := range ep.Bias {
		kern.Epilogue(out[f*plane:][:plane], b, ep.ReLU)
	}
}

// Generator builds a kernel specialized to a spec. It plays the role of
// the paper's code generators: invoked once per (layer, technique), the
// result is then run for every training batch.
type Generator struct {
	// Name identifies the technique, e.g. "stencil".
	Name string
	// New generates a kernel for s. Generators must be safe for concurrent
	// use.
	New func(s conv.Spec) Kernel
	// Supports reports whether the technique can execute the given
	// geometry. nil means every valid spec is supported. Shape-restricted
	// engines (the sparse kernels' ungrouped/undilated loop nests, the
	// prepacked GEMM's single weight pack) set this so the planner prunes
	// them from the candidate set instead of crashing at generation time.
	Supports func(s conv.Spec) bool
}

// Supports reports whether generator g can execute s: its Supports
// predicate when set, otherwise any valid spec.
func Supports(g Generator, s conv.Spec) bool {
	if s.Validate() != nil {
		return false
	}
	if g.Supports == nil {
		return true
	}
	return g.Supports(s)
}

// PlainOnly is the Supports predicate of engines that predate the
// generalized spec: they handle exactly the unpadded, undilated,
// ungrouped geometry.
func PlainOnly(s conv.Spec) bool { return s.Plain() }
