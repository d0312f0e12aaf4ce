package nn

import (
	"fmt"

	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
)

// ReLU is the rectified-linear activation y = max(0, x). Its backward pass
// zeroes every gradient whose input was non-positive — the mechanism that
// makes CNN error gradients sparse in practice, the property the
// Sparse-Kernel exploits (§3.3, Fig. 3b).
type ReLU struct {
	name    string
	dims    []int
	workers int
	// masks[i] saves which elements of batch slot i were positive in the
	// last Forward, for use in Backward.
	masks [][]bool
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

func (l *ReLU) ensureMasks(n int) {
	for len(l.masks) < n {
		l.masks = append(l.masks, make([]bool, prod(l.dims)))
	}
}

// Forward implements Layer.
func (l *ReLU) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	l.ensureMasks(len(ins))
	par.For(len(ins), l.workers, func(i int) {
		in, out, mask := ins[i], outs[i], l.masks[i]
		for j, v := range in.Data {
			if v > 0 {
				out.Data[j] = v
				mask[j] = true
			} else {
				out.Data[j] = 0
				mask[j] = false
			}
		}
	})
}

// Backward implements Layer: gradients pass only where the input was
// positive.
func (l *ReLU) Backward(eis, eos, _ []*tensor.Tensor) {
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	par.For(len(eos), l.workers, func(i int) {
		eo, ei, mask := eos[i], eis[i], l.masks[i]
		for j, v := range eo.Data {
			if mask[j] {
				ei.Data[j] = v
			} else {
				ei.Data[j] = 0
			}
		}
	})
}

// ApplyGrads implements Layer (no parameters).
func (l *ReLU) ApplyGrads(float32, int) {}
