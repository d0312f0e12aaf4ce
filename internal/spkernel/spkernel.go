// Package spkernel implements the paper's Sparse-Kernel (§4.2): the
// back-propagation kernels that exploit the moderate (50–95%) sparsity of
// output-activation errors to raise goodput.
//
// The ingredients match §4.2 one for one:
//
//   - Sparse data representation: for Eq. 3 the error gradient EO is
//     stored in CT-CSR (column-tiled CSR, Fig. 5a) with the spatial
//     positions as rows and the features as tiled columns, compressed once
//     per sample straight from the [f][y][x] tensor. Eq. 4 needs no
//     compression: it reads each feature's [y][x] plane through one vector
//     scan (kern.NonZeros) listing the plane's non-zero positions.
//   - Data-layout transformation: weights are transformed to [f][ky][kx·c]
//     (Eq. 13's W' with the kx and c loops merged), I to HWC, and the
//     results EI/dW are produced in the same layouts and transformed back.
//   - Pointer shifting (Eq. 15): in an HWC image the Fx·Nc values under one
//     kernel row are contiguous, so each non-zero EO[y′,x′,f] costs one
//     axpy of length Fx·Nc per kernel row — W′[f][ky][·] accumulated in
//     place into EI[y′·sy+ky, x′·sx, ·] — with no unfolding and nothing
//     done for zero gradients (Fig. 6).
//
// The delta-weight computation (Eq. 4) shifts the same windows of the
// input activations, feature by feature: the feature's dW′ block stays in
// registers across all of its non-zeros (kern.Block) and is stored
// once per image. Eq. 3's inner loop is kern.AxpyRuns.
package spkernel

import (
	"fmt"
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/kern"
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
// batch call; the CT-CSR skeleton and the Eq. 4 non-zero list (whose index
// arrays cannot live in the float arena) are recycled through a
// kernel-owned sync.Pool. One instance is safe for concurrent use through
// the batch entry points.
type Kernel struct {
	spec      conv.Spec
	tileWidth int

	// slices cut one feature's [ky][kx·c] dW′ block into the pieces a
	// kern.Block holds in registers.
	slices []blockSlice
	// origins maps an output position y′·OutX+x′ to its window's offset in
	// an HWC image, y′·sy·Nx·Nc + x′·sx·Nc.
	origins []int32

	// scratch pools bpScratch values, reused across steps.
	scratch sync.Pool

	fwd *unfoldgemm.Kernel
}

// bpScratch is one backward pass's non-float scratch.
type bpScratch struct {
	ceo sparse.CTCSR // Eq. 3's compression, rebuilt by FromPlanesCTInto
	// offs and vals list one EO plane's non-zeros for Eq. 4: positions as
	// kern.NonZeros writes them, then the window offsets they become, and
	// the values there.
	offs []int32
	vals []float32
}

// blockSlice is one piece of a feature's [ky][kx·c] block, at most
// kern.BlockVectors vectors: it starts at float dst of the block and at
// float src of a window.
type blockSlice struct {
	dst, src int
	blk      kern.Block
}

// blockSlices cuts an fy×run block, read from HWC image rows imgRow floats
// apart, into as few slices as hold it: whole rows, grouped evenly, when a
// row fits; else one row at a time in even column strips.
func blockSlices(fy, run, imgRow int) []blockSlice {
	var out []blockSlice
	add := func(r0, j0, rows, n int) {
		out = append(out, blockSlice{r0*run + j0, r0*imgRow + j0, kern.NewBlock(rows, n, run, imgRow)})
	}
	nv := (run + 7) / 8
	if nv > kern.BlockVectors {
		strips := (nv + kern.BlockVectors - 1) / kern.BlockVectors
		w := 8 * ((nv + strips - 1) / strips)
		for r := 0; r < fy; r++ {
			for j := 0; j < run; j += w {
				add(r, j, 1, min(w, run-j))
			}
		}
		return out
	}
	per := kern.BlockVectors / nv
	groups := (fy + per - 1) / per
	per = (fy + groups - 1) / groups
	for r := 0; r < fy; r += per {
		add(r, 0, min(per, fy-r), run)
	}
	return out
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
		slices:    blockSlices(s.Fy, s.Fx*s.Nc, s.Nx*s.Nc),
		fwd:       unfoldgemm.New(s, 1),
	}
	plane := s.OutY() * s.OutX()
	k.origins = make([]int32, 0, plane)
	for y := 0; y < s.OutY(); y++ {
		for x := 0; x < s.OutX(); x++ {
			k.origins = append(k.origins, int32((y*s.Sy*s.Nx+x*s.Sx)*s.Nc))
		}
	}
	k.scratch.New = func() any {
		return &bpScratch{offs: make([]int32, plane), vals: make([]float32, plane)}
	}
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

// BackwardBatch implements engine.FusedBackward: Eq. 3 (skipped when eis
// is nil) and Eq. 4 for every sample. The weight transform is hoisted out
// of the per-sample loop, and the [f][ky][kx·c] accumulator is zeroed once
// and summed over the whole batch, so the batch reduction is free.
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
// nil eis skips Eq. 3 (w is then unused) and with it the CT-CSR
// compression, nil dw skips Eq. 4 (ins unused). The two equations run one
// after the other rather than interleaved, so each walk's operands (one
// image, one set of blocks) stay L1-resident.
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
	sc := k.scratch.Get().(*bpScratch)
	for i, eo := range eos {
		conv.CheckOutput(s, eo)
		if eis != nil {
			conv.CheckInput(s, eis[i])
			sparse.FromPlanesCTInto(&sc.ceo, eo.Data, s.OutY()*s.OutX(), s.Nf, k.tileWidth)
			eiHWC.Zero()
			shift(s, &sc.ceo, eiHWC.Data, wT.Data)
			tensor.HWCToCHWInto(eis[i], eiHWC)
		}
		if dw != nil {
			conv.CheckInput(s, ins[i])
			tensor.CHWToHWCInto(inHWC, ins[i])
			k.weights(sc, eo.Data, inHWC.Data, dwT.Data)
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
// every stored non-zero from its feature's [ky][kx·c] W′ block into the
// zeroed HWC EI window (Eq. 3). A row is one output position (y′,x′): its
// window origin is hoisted out of the non-zero loop, and under it each of
// the Fy kernel rows is one contiguous run of Fx·Nc values, so a non-zero
// costs one AxpyRuns over Fy runs and an empty row one RowPtr compare.
func shift(s conv.Spec, ceo *sparse.CTCSR, img, blocks []float32) {
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
					kern.AxpyRuns(win, blk, vals[p], run, imgRow, run)
				}
			}
		}
	}
}

// weights adds one image's Eq. 4 terms into the [f][ky][kx·c] dW′
// accumulator blocks, one feature at a time, straight from the [f][y][x]
// EO planes: kern.NonZeros lists the plane's non-zero positions in
// ascending order, each is replaced by the origin of its HWC input
// window, and a kern.Block adds v·window into the feature's block — held
// in registers across the whole list, one slice at a time when the block
// is larger than kern.BlockVectors. Every dW′ element thus receives its
// terms in the order the CT-CSR walk gave them: images in batch order,
// positions ascending, each as acc + v·x.
func (k *Kernel) weights(sc *bpScratch, eo, img, blocks []float32) {
	s := k.spec
	block := s.Fy * s.Fx * s.Nc
	plane := s.OutY() * s.OutX()
	origins, offs, vals := k.origins[:plane], sc.offs[:plane], sc.vals[:plane]
	for f := 0; f < s.Nf; f++ {
		eoF := eo[f*plane:][:plane]
		nnz := kern.NonZeros(offs, eoF)
		if nnz == 0 {
			continue
		}
		for i, q := range offs[:nnz] {
			vals[i], offs[i] = eoF[q], origins[q]
		}
		blk := blocks[f*block:][:block]
		for i := range k.slices {
			sl := &k.slices[i]
			sl.blk.Axpy(blk[sl.dst:], img[sl.src:], vals[:nnz], offs[:nnz])
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
