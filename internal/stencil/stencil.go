package stencil

import (
	"fmt"
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// Kernel is a generated stencil convolution plan for one spec. Forward
// propagation is the paper's Stencil-Kernel: a direct register-tiled
// stencil over the input, with the Eq. 21 layout transform for strided
// convolutions and cache tiling along output rows.
//
// The paper deploys the stencil for FP only (BP uses GEMM or the sparse
// kernel); for interface completeness this kernel also provides direct
// (unfold-free) BP implementations built on the same row primitives.
//
// The plan holds no numeric scratch: accumulator tiles and the
// stride-split tensor come from the execution context's arena per batch
// call, and the column-kernel op lists come from a kernel-owned sync.Pool,
// so one instance is safe for concurrent use through the batch entry
// points.
type Kernel struct {
	spec conv.Spec
	plan Plan

	// scratch pools op-list skeletons for the column-resident kernels
	// (unit stride, rows <= 2): ops2 feed both tile rows, ops0/ops1 feed
	// only one.
	scratch sync.Pool
}

type fwdScratch struct {
	ops2, ops0, ops1 []tapOp
}

// New generates a kernel for s using the plan chosen by ChoosePlan.
func New(s conv.Spec) *Kernel { return NewWithPlan(ChoosePlan(s)) }

// NewWithPlan generates a kernel for an explicit plan — the ablation entry
// point for sweeping register tiles against the generator's choice.
func NewWithPlan(p Plan) *Kernel {
	p.Spec.MustValidate()
	if p.RY < 1 {
		p.RY = 1
	}
	if p.RY > maxRY {
		p.RY = maxRY
	}
	if p.TileX < 1 {
		p.TileX = p.Spec.OutX()
	}
	k := &Kernel{spec: p.Spec, plan: p}
	k.scratch.New = func() any { return &fwdScratch{} }
	return k
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string {
	return fmt.Sprintf("stencil(rx=%d,ry=%d)", k.plan.RX, k.plan.RY)
}

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// strideSplitInto performs the Eq. 21 transform into the scratch tensor:
// dst[c][y][x mod sx][x/sx] = in[c][y][x].
func strideSplitInto(dst, in *tensor.Tensor, sx int) {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	wq := dst.Dim(3)
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h; yi++ {
			src := in.Row3(ci, yi)
			base := (ci*h + yi) * sx * wq
			for xi := 0; xi < w; xi++ {
				dst.Data[base+(xi%sx)*wq+xi/sx] = src[xi]
			}
		}
	}
}

// srcRow returns the contiguous input row slice whose element x is
// in[c, iy, x·sx + kx], using the stride-split layout when sx > 1.
func (k *Kernel) srcRow(split *tensor.Tensor, in *tensor.Tensor, c, iy, kx int) []float32 {
	s := k.spec
	if s.Sx == 1 {
		return in.Row3(c, iy)[kx:]
	}
	wq := split.Dim(3)
	base := ((c*s.Ny+iy)*s.Sx + kx%s.Sx) * wq
	return split.Data[base+kx/s.Sx:]
}

// ForwardBatch computes Eq. 2 (§4.3) for every sample, sharing one set of
// arena-backed accumulator rows and stride-split scratch across the batch.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("stencil: ForwardBatch length mismatch")
	}
	if len(ins) == 0 {
		return
	}
	s := k.spec
	if !s.Plain() {
		k.forwardGeneralBatch(c, outs, ins, w)
		return
	}
	conv.CheckWeights(s, w)
	ox := s.OutX()
	accBacking := c.Get(k.plan.RY * ox)
	var acc [maxRY][]float32
	for i := 0; i < k.plan.RY; i++ {
		acc[i] = accBacking[i*ox : (i+1)*ox]
	}
	var split *tensor.Tensor
	if s.Sx > 1 {
		wq := (s.Nx + s.Sx - 1) / s.Sx
		split = c.GetTensor(s.Nc, s.Ny, s.Sx, wq)
		// The Eq. 21 transform leaves ragged sub-row tails unwritten; zero
		// once so arena reuse can never surface stale values.
		split.Zero()
	}
	sc := k.scratch.Get().(*fwdScratch)
	for i := range ins {
		k.forwardOne(sc, acc[:k.plan.RY], split, outs[i], ins[i], w)
	}
	k.scratch.Put(sc)
	if split != nil {
		c.PutTensor(split)
	}
	c.Put(accBacking)
}

// forwardOne runs the register-tiled stencil for one sample. The loop
// structure is:
//
//	for each feature f, block of RY output rows:
//	  for each cache tile of TileX output columns:
//	    for each channel, each input row feeding the block, each kx:
//	      stream the input row once into the ≤RY accumulator rows it feeds
//
// so each group of input loads is reused by up to RY accumulator rows per
// tap — the spatial reuse of Eq. 16's stencil formulation.
func (k *Kernel) forwardOne(sc *fwdScratch, accT [][]float32, split *tensor.Tensor, out, in, w *tensor.Tensor) {
	s := k.spec
	conv.CheckInput(s, in)
	conv.CheckOutput(s, out)
	src := in
	if s.Sx > 1 {
		strideSplitInto(split, in, s.Sx)
		src = split
	}
	oy, ox := s.OutY(), s.OutX()
	ry := k.plan.RY
	tileX := k.plan.TileX
	var dsts [maxRY][]float32
	var accRows [maxRY][]float32
	var wrows [maxRY][]float32
	var blk [maxRY][]float32
	var kys [maxRY]int
	var ws [maxRY]float32
	for f := 0; f < s.Nf; f++ {
		for yb := 0; yb < oy; yb += ry {
			rows := ry
			if yb+rows > oy {
				rows = oy - yb
			}
			for r := 0; r < rows; r++ {
				acc := accT[r][:ox]
				for i := range acc {
					acc[i] = 0
				}
			}
			iyLo := yb * s.Sy
			iyHi := (yb+rows-1)*s.Sy + s.Fy - 1
			if s.Sx == 1 && rows <= 2 {
				// The column-resident fast path: accumulate the whole
				// Nc·(rows+Fy−1)·Fx reduction for a strip of output
				// columns in registers before storing (tapColumn kernels).
				k.forwardColumns(sc, accT, out, in, w, f, yb, rows, iyLo, iyHi)
				continue
			}
			for xt := 0; xt < ox; xt += tileX {
				n := tileX
				if xt+n > ox {
					n = ox - xt
				}
				for c := 0; c < s.Nc; c++ {
					wBase := (f*s.Nc + c) * s.Fy * s.Fx
					for iy := iyLo; iy <= iyHi; iy++ {
						// Which accumulator rows does input row iy feed,
						// and through which kernel row ky?
						nd := 0
						for r := 0; r < rows; r++ {
							ky := iy - (yb+r)*s.Sy
							if ky >= 0 && ky < s.Fy {
								accRows[nd] = accT[r]
								kys[nd] = ky
								nd++
							}
						}
						if nd == 0 {
							continue
						}
						if s.Sx == 1 {
							// Unit stride, ry > 2 (ablation plans):
							// register-blocked tap reduction per input
							// row (tapblock.go).
							for d := 0; d < nd; d++ {
								wrows[d] = w.Data[wBase+kys[d]*s.Fx:][:s.Fx]
								blk[d] = accRows[d][xt:]
							}
							tapRows(blk[:nd], wrows[:nd], in.Row3(c, iy)[xt:], s.Fx, n)
							continue
						}
						// Strided along x: use the Eq. 21 layout and
						// per-tap streamed accumulation (contiguity holds
						// within one tap but not across taps).
						for kx := 0; kx < s.Fx; kx++ {
							srow := k.srcRow(src, in, c, iy, kx)
							for d := 0; d < nd; d++ {
								ws[d] = w.Data[wBase+kys[d]*s.Fx+kx]
								dsts[d] = accRows[d][xt:]
							}
							saxpyRows(dsts[:nd], ws[:nd], srow[xt:], n)
						}
					}
				}
			}
			for r := 0; r < rows; r++ {
				copy(out.Row3(f, yb+r), accT[r][:ox])
			}
		}
	}
}

// forwardColumns executes one (feature, row-block) of a unit-stride
// convolution with the column-resident kernels: it builds the op lists —
// every (channel, input row) pair, split by which tile rows the input row
// feeds — then reduces each cache tile of output columns entirely in
// registers.
func (k *Kernel) forwardColumns(sc *fwdScratch, accT [][]float32, out, in, w *tensor.Tensor, f, yb, rows, iyLo, iyHi int) {
	s := k.spec
	ox := s.OutX()
	sc.ops2 = sc.ops2[:0]
	sc.ops0 = sc.ops0[:0]
	sc.ops1 = sc.ops1[:0]
	for iy := iyLo; iy <= iyHi; iy++ {
		ky0 := iy - yb*s.Sy
		row0 := ky0 >= 0 && ky0 < s.Fy
		ky1 := -1
		row1 := false
		if rows == 2 {
			ky1 = iy - (yb+1)*s.Sy
			row1 = ky1 >= 0 && ky1 < s.Fy
		}
		if !row0 && !row1 {
			continue
		}
		for c := 0; c < s.Nc; c++ {
			wBase := (f*s.Nc + c) * s.Fy * s.Fx
			src := in.Row3(c, iy)
			switch {
			case row0 && row1:
				sc.ops2 = append(sc.ops2, tapOp{src: src,
					w0: w.Data[wBase+ky0*s.Fx:][:s.Fx],
					w1: w.Data[wBase+ky1*s.Fx:][:s.Fx]})
			case row0:
				sc.ops0 = append(sc.ops0, tapOp{src: src,
					w0: w.Data[wBase+ky0*s.Fx:][:s.Fx]})
			default:
				sc.ops1 = append(sc.ops1, tapOp{src: src,
					w0: w.Data[wBase+ky1*s.Fx:][:s.Fx]})
			}
		}
	}
	acc0 := accT[0][:ox]
	for i := range acc0 {
		acc0[i] = 0
	}
	var acc1 []float32
	if rows == 2 {
		acc1 = accT[1][:ox]
		for i := range acc1 {
			acc1[i] = 0
		}
	}
	tileX := k.plan.TileX
	for xt := 0; xt < ox; xt += tileX {
		n := tileX
		if xt+n > ox {
			n = ox - xt
		}
		if rows == 2 && len(sc.ops2) > 0 {
			tapColumn2(acc0[xt:], acc1[xt:], sc.ops2, s.Fx, xt, n)
		}
		if len(sc.ops0) > 0 {
			tapColumn1(acc0[xt:], sc.ops0, s.Fx, xt, n)
		}
		if rows == 2 && len(sc.ops1) > 0 {
			tapColumn1(acc1[xt:], sc.ops1, s.Fx, xt, n)
		}
		// rows == 1 with ops2 cannot happen (ops2 requires two rows).
	}
	copy(out.Row3(f, yb), acc0)
	if rows == 2 {
		copy(out.Row3(f, yb+1), acc1)
	}
}

// BackwardInputBatch computes Eq. 3 directly (no unfolding): every
// output-error row is streamed once per (c, ky, kx) tap into the
// input-error row it feeds, with strided scatter for sx > 1.
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("stencil: BackwardInputBatch length mismatch")
	}
	s := k.spec
	if !s.Plain() {
		k.backwardInputGeneralBatch(c, eis, eos, w)
		return
	}
	conv.CheckWeights(s, w)
	oy, ox := s.OutY(), s.OutX()
	for i := range eos {
		ei, eo := eis[i], eos[i]
		conv.CheckInput(s, ei)
		conv.CheckOutput(s, eo)
		ei.Zero()
		for f := 0; f < s.Nf; f++ {
			for y := 0; y < oy; y++ {
				erow := eo.Row3(f, y)
				if allZero(erow) {
					continue
				}
				for ch := 0; ch < s.Nc; ch++ {
					wBase := (f*s.Nc + ch) * s.Fy * s.Fx
					for ky := 0; ky < s.Fy; ky++ {
						dst := ei.Row3(ch, y*s.Sy+ky)
						for kx := 0; kx < s.Fx; kx++ {
							wv := w.Data[wBase+ky*s.Fx+kx]
							if wv == 0 {
								continue
							}
							scatterAxpy(dst[kx:], erow, wv, s.Sx, ox)
						}
					}
				}
			}
		}
	}
}

// BackwardWeightsBatch computes dw = Σ_i grad(eos[i], ins[i]) (Eq. 4)
// directly: each tap's gradient is the dot product of the output-error
// plane with the correspondingly shifted (and strided) input plane,
// accumulated over the batch. dw is overwritten.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("stencil: BackwardWeightsBatch length mismatch")
	}
	s := k.spec
	if !s.Plain() {
		k.backwardWeightsGeneralBatch(c, dw, eos, ins)
		return
	}
	conv.CheckWeights(s, dw)
	dw.Zero()
	oy, ox := s.OutY(), s.OutX()
	for i := range eos {
		eo, in := eos[i], ins[i]
		conv.CheckOutput(s, eo)
		conv.CheckInput(s, in)
		for f := 0; f < s.Nf; f++ {
			for ch := 0; ch < s.Nc; ch++ {
				wBase := (f*s.Nc + ch) * s.Fy * s.Fx
				for ky := 0; ky < s.Fy; ky++ {
					for kx := 0; kx < s.Fx; kx++ {
						var sum float32
						for y := 0; y < oy; y++ {
							erow := eo.Row3(f, y)
							if allZero(erow) {
								continue
							}
							irow := in.Row3(ch, y*s.Sy+ky)
							sum += gatherDot(erow, irow[kx:], s.Sx, ox)
						}
						dw.Data[wBase+ky*s.Fx+kx] += sum
					}
				}
			}
		}
	}
}

func allZero(row []float32) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// Generator returns the engine.Generator for the stencil technique.
func Generator() engine.Generator {
	return engine.Generator{
		Name: "stencil",
		New:  func(s conv.Spec) engine.Kernel { return New(s) },
	}
}
