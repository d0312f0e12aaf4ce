package nn

import (
	"fmt"

	"spgcnn/internal/kern"
	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
)

// MaxPool is a max-pooling layer with a square window and stride. Its
// backward pass routes each output gradient to the argmax input position —
// another source of gradient sparsity (most input positions get zero).
type MaxPool struct {
	name         string
	inDims       []int
	size, stride int
	outH, outW   int
	workers      int
	argmax       [][]int32 // per batch slot: flat input index per output element
}

// NewMaxPool builds a max-pooling layer over [C][H][W] inputs.
func NewMaxPool(name string, inDims []int, size, stride, workers int) *MaxPool {
	if len(inDims) != 3 {
		panic(fmt.Sprintf("nn: MaxPool needs [C][H][W] input, got %v", inDims))
	}
	if size < 1 || stride < 1 {
		panic("nn: MaxPool size/stride must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	h, w := inDims[1], inDims[2]
	if size > h || size > w {
		panic(fmt.Sprintf("nn: MaxPool window %d exceeds input %dx%d", size, h, w))
	}
	return &MaxPool{
		name:    name,
		inDims:  append([]int(nil), inDims...),
		size:    size,
		stride:  stride,
		outH:    (h-size)/stride + 1,
		outW:    (w-size)/stride + 1,
		workers: workers,
	}
}

// Name implements Layer.
func (l *MaxPool) Name() string { return l.name }

// InDims implements Layer.
func (l *MaxPool) InDims() []int { return l.inDims }

// OutDims implements Layer.
func (l *MaxPool) OutDims() []int { return []int{l.inDims[0], l.outH, l.outW} }

func (l *MaxPool) ensureArgmax(n int) {
	outLen := l.inDims[0] * l.outH * l.outW
	for len(l.argmax) < n {
		l.argmax = append(l.argmax, make([]int32, outLen))
	}
}

// Forward implements Layer.
func (l *MaxPool) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	l.ensureArgmax(len(ins))
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	par.For(len(ins), l.workers, func(i int) {
		in, out, am := ins[i].Data, outs[i].Data, l.argmax[i]
		o := 0
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < l.outH; oy++ {
				base := (ci*h + oy*l.stride) * w
				row := am[o : o+l.outW]
				kern.MaxPool(row, in[base:], base, w, l.size, l.stride)
				for _, j := range row {
					out[o] = in[j]
					o++
				}
			}
		}
	})
}

// Backward implements Layer: scatter each output gradient to its argmax.
func (l *MaxPool) Backward(eis, eos, _ []*tensor.Tensor) {
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	par.For(len(eos), l.workers, func(i int) {
		ei, eo, am := eis[i], eos[i], l.argmax[i]
		ei.Zero()
		for o, v := range eo.Data {
			ei.Data[am[o]] += v
		}
	})
}

// ApplyGrads implements Layer (no parameters).
func (l *MaxPool) ApplyGrads(float32, int) {}
