package nn

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// refReLUForward is the branchy ReLU forward the stateless select replaced,
// kept as the oracle: it also returns the mask its backward used.
func refReLUForward(out, in []float32, mask []bool) {
	for j, v := range in {
		if v > 0 {
			out[j] = v
			mask[j] = true
		} else {
			out[j] = 0
			mask[j] = false
		}
	}
}

// refReLUBackward is the branchy ReLU backward over the saved mask.
func refReLUBackward(ei, eo []float32, mask []bool) {
	for j, v := range eo {
		if mask[j] {
			ei[j] = v
		} else {
			ei[j] = 0
		}
	}
}

// refMaxPoolForward is the branchy per-window max-pool forward the
// row-streamed walk replaced: a strict v > best over each window in
// row-major order, seeded with the window's first element.
func refMaxPoolForward(l *MaxPool, out, in []float32, am []int32) {
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	o := 0
	for ci := 0; ci < c; ci++ {
		base := ci * h * w
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				bestIdx := base + oy*l.stride*w + ox*l.stride
				best := in[bestIdx]
				for ky := 0; ky < l.size; ky++ {
					rowBase := base + (oy*l.stride+ky)*w + ox*l.stride
					for kx := 0; kx < l.size; kx++ {
						if v := in[rowBase+kx]; v > best {
							best = v
							bestIdx = rowBase + kx
						}
					}
				}
				out[o] = best
				am[o] = int32(bestIdx)
				o++
			}
		}
	}
}

// glueSpecials are the float32 bit patterns the branch-free compares must
// treat exactly as the float compare does.
var glueSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, // NaNs
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
	0x00800000, 0x80800000, // smallest normals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x3f800000, 0xbf800000, // ±1
}

// glueInput fills t with one of the oracle's input families.
func glueInput(t *tensor.Tensor, kind string, r *rng.RNG) {
	t.FillNormal(r, 0, 1)
	switch kind {
	case "normal":
	case "relu-ties": // a ReLU output: about half exact zeros
		for j, v := range t.Data {
			t.Data[j] = max(v, 0)
		}
	case "specials": // specials, ties and NaN window leaders at high density
		for j := range t.Data {
			if r.Float32() < 0.6 {
				t.Data[j] = math.Float32frombits(glueSpecials[r.Intn(len(glueSpecials))])
			}
		}
	default:
		panic(kind)
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
			return false
		}
	}
	return true
}

func newBatch(n int, dims []int) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, n)
	for i := range ts {
		ts[i] = tensor.New(dims...)
	}
	return ts
}

var glueKinds = []string{"normal", "relu-ties", "specials"}

// TestReLUMatchesBranchyOracle pins the branch-free, state-free ReLU to the
// branchy masked one, bit for bit, forward and backward, over every input
// family, worker count and a ragged sequence of batch sizes.
func TestReLUMatchesBranchyOracle(t *testing.T) {
	dims := []int{3, 5, 7}
	r := rng.New(29)
	for _, workers := range []int{1, 2, 3} {
		l := NewReLU("relu", dims, workers)
		for _, kind := range glueKinds {
			for _, n := range []int{7, 1, 4, 5} {
				ins, eos := newBatch(n, dims), newBatch(n, dims)
				outs, eis := newBatch(n, dims), newBatch(n, dims)
				for i := range ins {
					glueInput(ins[i], kind, r)
					glueInput(eos[i], kind, r)
				}
				l.Forward(outs, ins)
				l.Backward(eis, eos, ins)
				for i := range ins {
					size := len(ins[i].Data)
					wantOut, wantEI, mask := make([]float32, size), make([]float32, size), make([]bool, size)
					refReLUForward(wantOut, ins[i].Data, mask)
					refReLUBackward(wantEI, eos[i].Data, mask)
					if !sameBits(outs[i].Data, wantOut) {
						t.Fatalf("workers %d %s batch %d slot %d: forward differs from the oracle", workers, kind, n, i)
					}
					if !sameBits(eis[i].Data, wantEI) {
						t.Fatalf("workers %d %s batch %d slot %d: backward differs from the oracle", workers, kind, n, i)
					}
				}
			}
		}
	}
}

// TestMaxPoolMatchesBranchyOracle pins the row-streamed max-pool to the
// branchy per-window one: outputs bit for bit, the argmax of every window
// (first of equal maxima, ±0 equal, NaN candidates never winning, a NaN
// leader never beaten) and so the routed input gradients, over every input
// family, pool geometry, worker count and a ragged sequence of batch sizes.
// The [1][2][150] input has a 149-wide output row, so the forward's row
// chunks split it.
func TestMaxPoolMatchesBranchyOracle(t *testing.T) {
	r := rng.New(31)
	for _, geo := range []struct {
		dims         []int
		size, stride int
	}{
		{[]int{3, 12, 13}, 2, 2},
		{[]int{3, 12, 13}, 4, 4},
		{[]int{3, 12, 13}, 2, 1},
		{[]int{3, 12, 13}, 3, 2},
		{[]int{1, 2, 150}, 2, 1},
	} {
		for _, workers := range []int{1, 2, 3} {
			l := NewMaxPool("pool", geo.dims, geo.size, geo.stride, workers)
			name := fmt.Sprintf("%v %d/%d workers %d", geo.dims, geo.size, geo.stride, workers)
			for _, kind := range glueKinds {
				for _, n := range []int{5, 1, 7, 4} {
					ins, outs := newBatch(n, geo.dims), newBatch(n, l.OutDims())
					eos, eis := newBatch(n, l.OutDims()), newBatch(n, geo.dims)
					for i := range ins {
						glueInput(ins[i], kind, r)
						eos[i].FillNormal(r, 0, 1)
					}
					l.Forward(outs, ins)
					l.Backward(eis, eos, ins)
					for i := range ins {
						wantOut, wantAM := make([]float32, len(outs[i].Data)), make([]int32, len(outs[i].Data))
						refMaxPoolForward(l, wantOut, ins[i].Data, wantAM)
						if !sameBits(outs[i].Data, wantOut) {
							t.Fatalf("%s %s batch %d slot %d: forward differs from the oracle", name, kind, n, i)
						}
						for o, j := range wantAM {
							if l.argmax[i][o] != j {
								t.Fatalf("%s %s batch %d slot %d output %d: argmax %d, oracle %d",
									name, kind, n, i, o, l.argmax[i][o], j)
							}
						}
						wantEI := make([]float32, len(ins[i].Data))
						for o, v := range eos[i].Data {
							wantEI[wantAM[o]] += v
						}
						if !sameBits(eis[i].Data, wantEI) {
							t.Fatalf("%s %s batch %d slot %d: input gradient differs from the oracle", name, kind, n, i)
						}
					}
				}
			}
		}
	}
}

// BenchmarkGlue times the glue layers at the CIFAR conv0 output: ReLU and
// the net's 4x4 max-pool over a batch of 16 [64][32][32] images at 2
// workers, forward and backward. The conv rows time conv0 itself, pinned to
// the strategies train_cifar deploys (gemm-in-parallel FP, sparse BP, no
// input gradient): "conv" is the engine alone (core.Exec, no epilogue) and
// "conv+relu" the fused layer, whose FP adds the bias+ReLU epilogue and
// whose BP adds the mask and the dB/probe reduction, over a pooled EO of
// the density training sees. The difference is the fusion's whole cost.
func BenchmarkGlue(b *testing.B) {
	const batch, workers = 16, 2
	dims := []int{64, 32, 32}
	r := rng.New(1)
	relu := NewReLU("relu0", dims, workers)
	pool := NewMaxPool("pool0", dims, 4, 4, workers)
	x, y, gx, gy := newBatch(batch, dims), newBatch(batch, dims), newBatch(batch, dims), newBatch(batch, dims)
	p, gp := newBatch(batch, pool.OutDims()), newBatch(batch, pool.OutDims())
	for i := range x {
		x[i].FillNormal(r, 0, 1)
		gy[i].FillNormal(r, 0, 1)
		gp[i].FillNormal(r, 0, 1)
	}
	relu.Forward(y, x)
	pool.Forward(p, y)

	ctx := exec.New(workers)
	fp, _ := core.StrategyByName("gemm-in-parallel", workers)
	bp, _ := core.StrategyByName("sparse", workers)
	cs := conv.Square(36, 64, 3, 5, 1)
	cv := NewConvCtx("conv0", cs, core.FixedPlanner(fp, bp), ctx, r)
	cv.FuseReLU()
	cv.first = true
	cv.B.FillNormal(r, 0, 0.1)
	cin, cout, ceo := newBatch(batch, cv.InDims()), newBatch(batch, dims), newBatch(batch, dims)
	for i := range cin {
		cin[i].FillNormal(r, 0, 1)
	}
	cv.Forward(cout, cin)
	pool.Forward(p, cout)
	pool.Backward(ceo, gp, cout) // one non-zero per 4x4 window, as pool0 hands conv0
	fpExec, bpExec := core.NewExecCtx(fp, cs, ctx), core.NewExecCtx(bp, cs, ctx)
	dw := conv.NewWeights(cs)

	for _, c := range []struct {
		name string
		call func()
	}{
		{"relu/fp", func() { relu.Forward(y, x) }},
		{"relu/bp", func() { relu.Backward(gx, gy, x) }},
		{"maxpool/fp", func() { pool.Forward(p, y) }},
		{"maxpool/bp", func() { pool.Backward(gy, gp, y) }},
		{"conv/fp", func() { fpExec.Forward(cout, cin, cv.W) }},
		{"conv+relu/fp", func() { cv.Forward(cout, cin) }},
		{"conv/bp", func() { bpExec.Backward(nil, dw, ceo, cin, cv.W) }},
		{"conv+relu/bp", func() { cv.Backward(nil, ceo, cin) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.call()
			}
		})
	}
}
