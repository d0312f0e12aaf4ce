// Package refconv wraps the conv reference oracles (Eqs. 2–4 as plain
// loop nests) in the engine.Kernel seam. It is the planner's last-resort
// candidate: slow but total — it executes every valid spec, including
// padded/dilated/grouped geometry no optimized engine claims — so a net
// built from any valid netdef always has at least one runnable strategy
// per layer.
package refconv

import (
	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// Name is the technique name the planner and tuning configs use.
const Name = "reference"

// Kernel is a reference-oracle convolution plan for one spec.
type Kernel struct {
	spec conv.Spec
}

var _ engine.Kernel = (*Kernel)(nil)

// New builds a reference kernel for s.
func New(s conv.Spec) *Kernel {
	s.MustValidate()
	return &Kernel{spec: s}
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string { return Name }

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// ForwardBatch computes Eq. 2 per sample with the reference loop nest.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("refconv: ForwardBatch length mismatch")
	}
	for i := range ins {
		conv.ForwardRef(k.spec, outs[i], ins[i], w)
	}
}

// BackwardInputBatch computes Eq. 3 per sample with the reference adjoint
// scatter.
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("refconv: BackwardInputBatch length mismatch")
	}
	for i := range eos {
		conv.BackwardInputRef(k.spec, eis[i], eos[i], w)
	}
}

// BackwardWeightsBatch computes dw = Σ_i grad(eos[i], ins[i]) (Eq. 4
// summed over the batch) through a per-sample reference scratch. dw is
// overwritten.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("refconv: BackwardWeightsBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, dw)
	dw.Zero()
	tmp := c.GetTensor(s.WeightDims()...)
	for i := range eos {
		conv.BackwardWeightsRef(s, tmp, eos[i], ins[i])
		dw.AddScaled(tmp, 1)
	}
	c.PutTensor(tmp)
}

// Generator returns the reference-oracle engine.Generator. It supports
// every valid spec (Supports == nil).
func Generator() engine.Generator {
	return engine.Generator{
		Name: Name,
		New:  func(s conv.Spec) engine.Kernel { return New(s) },
	}
}
