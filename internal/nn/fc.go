package nn

import (
	"fmt"
	"math"
	"sync"

	"spgcnn/internal/exec"
	"spgcnn/internal/par"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// FC is a fully-connected layer y = W·x + b over flattened inputs (the
// classifier head of every benchmark network). The batch is processed with
// GEMM-in-Parallel scheduling: one image per worker; per-worker gradient
// accumulators come from the execution context's arena.
type FC struct {
	name   string
	inDims []int
	inLen  int
	outLen int
	ctx    *exec.Ctx

	W, B   *tensor.Tensor // W: [out][in], B: [out]
	dW, dB *tensor.Tensor
	mu     sync.Mutex // guards dW/dB accumulation across workers
	opt    sgdState   // optimizer config (momentum.go)
}

// NewFCCtx builds a fully-connected layer mapping prod(inDims) -> out,
// scheduling over the given execution context.
func NewFCCtx(name string, inDims []int, out int, c *exec.Ctx, r *rng.RNG) *FC {
	if out < 1 {
		panic("nn: FC output size must be positive")
	}
	if c == nil {
		c = exec.New(1)
	}
	inLen := prod(inDims)
	l := &FC{
		name:   name,
		inDims: append([]int(nil), inDims...),
		inLen:  inLen,
		outLen: out,
		ctx:    c,
		W:      tensor.New(out, inLen),
		B:      tensor.New(out),
		dW:     tensor.New(out, inLen),
		dB:     tensor.New(out),
	}
	l.W.FillNormal(r, 0, float32(math.Sqrt(2/float64(inLen))))
	return l
}

// Name implements Layer.
func (l *FC) Name() string { return l.name }

// InDims implements Layer.
func (l *FC) InDims() []int { return l.inDims }

// OutDims implements Layer.
func (l *FC) OutDims() []int { return []int{l.outLen} }

// Forward implements Layer.
func (l *FC) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	par.For(len(ins), l.ctx.Workers(), func(i int) {
		x := ins[i].Data
		y := outs[i].Data
		for o := 0; o < l.outLen; o++ {
			row := l.W.Data[o*l.inLen : (o+1)*l.inLen]
			var s float32
			for j, v := range row {
				s += v * x[j]
			}
			y[o] = s + l.B.Data[o]
		}
	})
}

// Backward implements Layer: ei = Wᵀ·eo, dW += eo⊗x, dB += eo.
func (l *FC) Backward(eis, eos, ins []*tensor.Tensor) {
	if len(eis) != len(eos) || len(eos) != len(ins) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	par.ForWorkers(len(eos), l.ctx.Workers(), func(_, lo, hi int) {
		if lo >= hi {
			return
		}
		dW := l.ctx.GetTensor(l.outLen, l.inLen)
		dB := l.ctx.GetTensor(l.outLen)
		dW.Zero()
		dB.Zero()
		for i := lo; i < hi; i++ {
			eo := eos[i].Data
			x := ins[i].Data
			ei := eis[i].Data
			clear(ei)
			for o := 0; o < l.outLen; o++ {
				g := eo[o]
				if g == 0 {
					continue
				}
				wrow := l.W.Data[o*l.inLen : (o+1)*l.inLen]
				drow := dW.Data[o*l.inLen : (o+1)*l.inLen]
				for j, wv := range wrow {
					ei[j] += g * wv
					drow[j] += g * x[j]
				}
				dB.Data[o] += g
			}
		}
		l.mu.Lock()
		l.dW.AddScaled(dW, 1)
		l.dB.AddScaled(dB, 1)
		l.mu.Unlock()
		l.ctx.PutTensor(dB)
		l.ctx.PutTensor(dW)
	})
}

// ApplyGrads implements Layer.
func (l *FC) ApplyGrads(lr float32, batch int) {
	l.opt.step(l.W, l.dW, lr, batch)
	l.opt.step(l.B, l.dB, lr, batch)
}
