package nn

import (
	"fmt"

	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
)

// ReLU is the rectified-linear activation y = max(0, x). Its backward pass
// zeroes every gradient whose input was non-positive — the mechanism that
// makes CNN error gradients sparse in practice, the property the
// Sparse-Kernel exploits (§3.3, Fig. 3b). It keeps no per-batch-slot state:
// Backward rebuilds the forward's select from the inputs the Layer contract
// hands back.
type ReLU struct {
	name    string
	dims    []int
	workers int
}

// NewReLU builds a ReLU over per-image tensors of the given dims.
func NewReLU(name string, dims []int, workers int) *ReLU {
	if workers < 1 {
		workers = 1
	}
	return &ReLU{name: name, dims: append([]int(nil), dims...), workers: workers}
}

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// InDims implements Layer.
func (l *ReLU) InDims() []int { return l.dims }

// OutDims implements Layer.
func (l *ReLU) OutDims() []int { return l.dims }

// Forward implements Layer.
func (l *ReLU) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	par.For(len(ins), l.workers, func(i int) { reluRow(outs[i].Data, ins[i].Data) })
}

// Backward implements Layer: gradients pass only where the input was
// positive.
func (l *ReLU) Backward(eis, eos, ins []*tensor.Tensor) {
	if len(eis) != len(eos) || len(ins) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	par.For(len(eos), l.workers, func(i int) { reluGradRow(eis[i].Data, eos[i].Data, ins[i].Data) })
}

// ApplyGrads implements Layer (no parameters).
func (l *ReLU) ApplyGrads(float32, int) {}
