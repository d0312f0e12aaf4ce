// Package spkernel implements the paper's Sparse-Kernel (§4.2): the
// back-propagation kernels that exploit the moderate (50–95%) sparsity of
// output-activation errors to raise goodput.
//
// The ingredients match §4.2 one for one:
//
//   - Sparse data representation: the error gradient EO is stored in
//     CT-CSR (column-tiled CSR, Fig. 5a) with the spatial positions as rows
//     and the features as tiled columns. Each sample's EO is compressed
//     ONCE per backward pass, straight from the [f][y][x] tensor, and both
//     Eq. 3 and Eq. 4 walk that one compression.
//   - Data-layout transformation: weights are transformed to [f][ky][kx·c]
//     (Eq. 13's W' with the kx and c loops merged), I to HWC, and the
//     results EI/dW are produced in the same layouts and transformed back.
//   - Pointer shifting (Eq. 15): in an HWC image the Fx·Nc values under one
//     kernel row are contiguous, so each non-zero EO[y′,x′,f] costs one
//     axpy of length Fx·Nc per kernel row — W′[f][ky][·] accumulated in
//     place into EI[y′·sy+ky, x′·sx, ·] — with no unfolding and nothing
//     done for zero gradients (Fig. 6).
//
// The delta-weight computation (Eq. 4) follows the same structure with the
// input activations in place of the weights. The inner loops live in
// kernels.go.
package spkernel

import (
	"fmt"
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/sparse"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// Kernel is a generated sparse BP plan for one spec. Forward propagation
// is not this technique's job (the paper pairs Sparse-Kernel BP with
// GEMM-in-Parallel or Stencil-Kernel FP), so Forward delegates to a serial
// unfold+GEMM kernel for interface completeness.
//
// Layout-transform scratch comes from the execution context's arena per
// batch call; the CT-CSR skeleton (whose index arrays cannot live in the
// float arena) is recycled through a kernel-owned sync.Pool. One instance
// is safe for concurrent use through the batch entry points.
type Kernel struct {
	spec      conv.Spec
	tileWidth int

	// scratch pools CT-CSR skeletons whose Values/ColIdx/RowPtr arrays are
	// reused across steps via sparse.FromDenseCTInto.
	scratch sync.Pool

	fwd *unfoldgemm.Kernel
}

type ceoScratch struct {
	ceo sparse.CTCSR
}

// New generates a sparse kernel for s. tileWidth <= 0 selects the CT-CSR
// default tile width.
func New(s conv.Spec, tileWidth int) *Kernel {
	s.MustValidate()
	if tileWidth <= 0 {
		tileWidth = sparse.DefaultTileWidth
	}
	k := &Kernel{
		spec:      s,
		tileWidth: tileWidth,
		fwd:       unfoldgemm.New(s, 1),
	}
	k.scratch.New = func() any { return &ceoScratch{} }
	return k
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string { return fmt.Sprintf("sparse(tile=%d)", k.tileWidth) }

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// ForwardBatch delegates to serial unfold+GEMM (see type comment).
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	k.fwd.ForwardBatch(c, outs, ins, w)
}

// BackwardBatch implements engine.FusedBackward: one CT-CSR compression per
// sample drives both Eq. 3 (skipped when eis is nil) and Eq. 4. The weight
// transform is hoisted out of the per-sample loop, and the [f][ky][kx·c]
// accumulator is zeroed once and summed over the whole batch, so the batch
// reduction is free.
func (k *Kernel) BackwardBatch(c *exec.Ctx, eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(eos) != len(ins) || (eis != nil && len(eis) != len(eos)) {
		panic("spkernel: BackwardBatch length mismatch")
	}
	k.backward(c, eis, dw, eos, ins, w)
}

// BackwardInputBatch computes Eq. 3 alone by pointer shifting (Eq. 15).
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("spkernel: BackwardInputBatch length mismatch")
	}
	k.backward(c, eis, nil, eos, nil, w)
}

// BackwardWeightsBatch computes dw = Σ_i grad(eos[i], ins[i]) (Eq. 4)
// alone. dw is overwritten.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("spkernel: BackwardWeightsBatch length mismatch")
	}
	k.backward(c, nil, dw, eos, ins, nil)
}

// backward is the one sparse BP loop nest behind all three entry points:
// nil eis skips Eq. 3 (w is then unused), nil dw skips Eq. 4 (ins unused).
// The two equations walk the compression one after the other rather than
// interleaved, so each walk's operands (one image, one set of blocks) stay
// L1-resident.
func (k *Kernel) backward(c *exec.Ctx, eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	s := k.spec
	var wT, eiHWC, inHWC, dwT *tensor.Tensor
	if eis != nil {
		conv.CheckWeights(s, w)
		wT = c.GetTensor(s.Nf, s.Fy, s.Fx, s.Nc)
		tensor.FCKKToFKKCInto(wT, w)
		eiHWC = c.GetTensor(s.Ny, s.Nx, s.Nc)
	}
	if dw != nil {
		conv.CheckWeights(s, dw)
		inHWC = c.GetTensor(s.Ny, s.Nx, s.Nc)
		dwT = c.GetTensor(s.Nf, s.Fy, s.Fx, s.Nc)
		dwT.Zero()
	}
	sc := k.scratch.Get().(*ceoScratch)
	for i, eo := range eos {
		conv.CheckOutput(s, eo)
		sparse.FromPlanesCTInto(&sc.ceo, eo.Data, s.OutY()*s.OutX(), s.Nf, k.tileWidth)
		if eis != nil {
			conv.CheckInput(s, eis[i])
			eiHWC.Zero()
			shift(s, &sc.ceo, eiHWC.Data, wT.Data, true)
			tensor.HWCToCHWInto(eis[i], eiHWC)
		}
		if dw != nil {
			conv.CheckInput(s, ins[i])
			tensor.CHWToHWCInto(inHWC, ins[i])
			shift(s, &sc.ceo, inHWC.Data, dwT.Data, false)
		}
	}
	k.scratch.Put(sc)
	if dw != nil {
		tensor.FKKCToFCKKInto(dw, dwT)
		c.PutTensor(dwT)
		c.PutTensor(inHWC)
	}
	if eis != nil {
		c.PutTensor(eiHWC)
		c.PutTensor(wT)
	}
}

// shift walks the compressed EO tile by tile, row by row, pointer-shifting
// every stored non-zero between an HWC image and the [f][ky][kx·c] blocks:
// toImage accumulates v·block into the image window (Eq. 3: blocks are W′,
// img the zeroed EI), otherwise v·window into the block (Eq. 4: img is I,
// blocks the dW′ accumulator). A row is one output position (y′,x′): its
// window origin is hoisted out of the non-zero loop, and under it each of
// the Fy kernel rows is one contiguous run of Fx·Nc values, so a non-zero
// costs Fy axpys and an empty row one RowPtr compare.
func shift(s conv.Spec, ceo *sparse.CTCSR, img, blocks []float32, toImage bool) {
	run := s.Fx * s.Nc    // merged kx·c vector length
	imgRow := s.Nx * s.Nc // one image row in HWC
	block := s.Fy * run   // one feature's [ky][kx·c] block
	span := (s.Fy-1)*imgRow + run
	oy, ox := s.OutY(), s.OutX()
	for t, tile := range ceo.Tiles {
		fBase := t * ceo.TileWidth
		ptr, cols, vals := tile.RowPtr, tile.ColIdx, tile.Values
		row := 0
		for yq := 0; yq < oy; yq++ {
			for xq := 0; xq < ox; xq++ {
				lo, hi := ptr[row], ptr[row+1]
				row++
				if lo == hi {
					continue
				}
				win := img[yq*s.Sy*imgRow+xq*s.Sx*s.Nc:][:span]
				for p := lo; p < hi; p++ {
					blk := blocks[(fBase+int(cols[p]))*block:][:block]
					if toImage {
						axpyRows(win, blk, vals[p], run, imgRow, run)
					} else {
						axpyRows(blk, win, vals[p], run, run, imgRow)
					}
				}
			}
		}
	}
}

// NonZeroFlops returns the useful (non-zero) flop count of one BP pass of
// spec s when EO has nnz stored non-zeros: 2 flops per (non-zero, tap,
// channel) triple — the numerator of the paper's goodput (Eq. 9).
func NonZeroFlops(s conv.Spec, nnz int) int64 {
	return 2 * int64(nnz) * int64(s.Fy) * int64(s.Fx) * int64(s.Nc)
}

// Generator returns the engine.Generator for the sparse technique with the
// default CT-CSR tile width.
func Generator() engine.Generator {
	return engine.Generator{
		Name: "sparse",
		New:  func(s conv.Spec) engine.Kernel { return New(s, 0) },
		// The CT-CSR pointer-shifting loop nests are generated for plain
		// geometry (no padding/dilation/groups); decline generalized specs
		// so the planner prunes this candidate instead of crashing.
		Supports: engine.PlainOnly,
	}
}
