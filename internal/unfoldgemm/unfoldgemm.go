// Package unfoldgemm implements the state-of-the-art baseline the paper
// characterizes (§2.3): convolution lowered to GEMM over the unfolded
// input, in the two scheduling flavours §3–4 contrast:
//
//   - workers == 1: the single-threaded GEMM that GEMM-in-Parallel runs
//     many instances of.
//   - workers > 1: Unfold+Parallel-GEMM — each of the three training GEMMs
//     is partitioned across all workers, reproducing the per-core AIT
//     reduction of §3.2.
//
// The three computations are the GEMMs of Fig. 2c:
//
//	FP:   O[Nf×pix]      = Wmat[Nf×taps] · Uᵀ
//	BP-EI: U_E[pix×taps] = EOmatᵀ · Wmat, then fold (col2im)
//	BP-dW: dW[Nf×taps]   = EOmat[Nf×pix] · U[pix×taps]
//
// The unfold is implicit: no pix × taps matrix is ever built. Each phase
// builds one 8-wide GEMM panel of U at a time straight from the input (FP:
// 8 pixels × all taps; BP-dW: 8 taps × all pixels) in the k-interleaved
// layout kern.Dot8 and kern.Dot8x4 consume, and BP-EI scatters into a
// panel of U_E of up to one output row that is folded into the input
// gradient before the next one. BP-dW takes the batch in sub-batches of
// nb images, nb from the output size (16 on a 4×4 output, 1 from 256
// pixels up): one panel of every image of the sub-batch side by side is a
// single operand, and kern.Dot8x4Seg holds each 4×8 block of dW in
// registers across the images, adding each image's dot in image order.
// Each output element keeps the single k-ordered accumulator, and the
// per-image dW sum, of the explicit im2col → GEMM → col2im composition,
// so results are bit-identical to it.
package unfoldgemm

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/kern"
	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfold"
)

// Kernel is an unfold+GEMM convolution plan for one spec. It holds only
// constant geometry — scratch (panels, zero-bordered copies) is drawn from
// the execution context's arena per batch call — so one instance is safe
// for concurrent use through the batch entry points.
type Kernel struct {
	spec    conv.Spec
	workers int

	// Output width, pixel count (the rows of U) and taps per group (its
	// columns).
	ox, rows, cols int
	// pw is the pixel width of a BP-EI panel, nb the number of images a
	// BP-dW sub-batch gathers into one reduction (nb·pixels·8 floats, one
	// panel of every image, near 8 KB) and blk the number of 8-tap panels
	// a BP-dW work unit builds per image: pw and blk keep a unit's panels
	// near 16 KB, and blk leaves every worker at least 4 units.
	pw, nb, blk int
	// Geometry of the zero-bordered input ([Nc][Ny+2Py][Nx+2Px]; the input
	// itself when unpadded): row width and plane size.
	px, plane int
	// taps[t] is the offset of group-relative tap t = (cc, ky, kx) from its
	// pixel's window origin: cc·plane + ky·Dy·px + kx·Dx. It strictly
	// increases with t.
	taps []int
}

// New builds a kernel for s. workers selects Parallel-GEMM fan-out;
// workers <= 1 yields the single-threaded GEMM.
func New(s conv.Spec, workers int) *Kernel {
	s.MustValidate()
	if workers < 1 {
		workers = 1
	}
	k := &Kernel{spec: s, workers: workers, ox: s.OutX(), rows: unfold.Rows(s), cols: unfold.Cols(s),
		px: s.Nx + 2*s.Px}
	k.plane = (s.Ny + 2*s.Py) * k.px
	k.pw = min(k.ox, max(8, 4096/k.cols/8*8))
	k.nb = max(1, 2048/(8*k.rows))
	k.blk = max(1, min(4096/(8*k.rows*k.nb), (k.cols+7)/8/(4*workers)))
	for cc := 0; cc < s.GroupNc(); cc++ {
		for ky := 0; ky < s.Fy; ky++ {
			for kx := 0; kx < s.Fx; kx++ {
				k.taps = append(k.taps, cc*k.plane+ky*s.DilY()*k.px+kx*s.DilX())
			}
		}
	}
	return k
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string {
	if k.workers <= 1 {
		return "unfold-gemm(serial)"
	}
	return fmt.Sprintf("unfold-parallel-gemm(p=%d)", k.workers)
}

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// Workers reports the GEMM fan-out.
func (k *Kernel) Workers() int { return k.workers }

// getPad draws a zero-bordered image buffer when the spec pads; without
// padding it returns nil and panels read the tensors themselves. putPad
// returns it.
func (k *Kernel) getPad(c *exec.Ctx) []float32 {
	if k.spec.Px == 0 && k.spec.Py == 0 {
		return nil
	}
	return c.Get(k.spec.Nc * k.plane)
}

func (k *Kernel) putPad(c *exec.Ctx, buf []float32) {
	if buf != nil {
		c.Put(buf)
	}
}

// source returns the image panels are built from: in itself, or in copied
// into the zero-bordered buf.
func (k *Kernel) source(buf []float32, in *tensor.Tensor) []float32 {
	if buf == nil {
		return in.Data
	}
	s := &k.spec
	clear(buf)
	for c := 0; c < s.Nc; c++ {
		for y := 0; y < s.Ny; y++ {
			o := c*k.plane + (y+s.Py)*k.px + s.Px
			copy(buf[o:o+s.Nx], in.Row3(c, y))
		}
	}
	return buf
}

// origin returns the offset of output pixel p's window origin within group
// g of the (zero-bordered) image.
func (k *Kernel) origin(g, p int) int {
	return g*k.spec.GroupNc()*k.plane + (p/k.ox)*k.spec.Sy*k.px + (p%k.ox)*k.spec.Sx
}

// fan runs body over the work units [0, n), one contiguous range per
// worker, handing each worker its own per-float slice of scratch. Units
// own disjoint outputs and keep their per-element operation order, so every
// worker count gives the same bits. (Serial kernels call the body inline:
// no closure, no allocation.)
func (k *Kernel) fan(n int, scratch []float32, per int, body func(lo, hi int, buf []float32)) {
	par.ForWorkers(n, k.workers, func(w, lo, hi int) {
		body(lo, hi, scratch[w*per:(w+1)*per])
	})
}

// ForwardBatch computes Eq. 2 by O = Wmat · Uᵀ. The work units are
// (group, 8-pixel panel): each builds its cols × 8 panel of Uᵀ from the
// image and runs every feature row of its group against it while it is in
// L1.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("unfoldgemm: ForwardBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, w)
	units := s.G() * ((k.rows + 7) / 8)
	pad := k.getPad(c)
	scratch := c.Get(min(k.workers, units) * k.cols * 8)
	for i := range ins {
		conv.CheckInput(s, ins[i])
		conv.CheckOutput(s, outs[i])
		src, out := k.source(pad, ins[i]), outs[i].Data
		if k.workers <= 1 {
			k.forward(out, src, w.Data, scratch, 0, units)
			continue
		}
		k.fan(units, scratch, k.cols*8, func(lo, hi int, panel []float32) {
			k.forward(out, src, w.Data, panel, lo, hi)
		})
	}
	c.Put(scratch)
	k.putPad(c, pad)
}

// forward computes the FP work units [lo, hi): the group's feature rows run
// four at a time against each pixel panel (kern.Dot8x4), the rest one at a
// time.
func (k *Kernel) forward(out, src, w, panel []float32, lo, hi int) {
	rows, cols := k.rows, k.cols
	gnf, npan := k.spec.GroupNf(), (rows+7)/8
	panel = panel[:cols*8]
	var s [4][8]float32
	for u := lo; u < hi; u++ {
		g, p0 := u/npan, u%npan*8
		n := k.pixelPanel(panel, src, g, p0)
		f, f1 := g*gnf, (g+1)*gnf
		for ; f+4 <= f1; f += 4 {
			kern.Dot8x4(&s, w[f*cols:(f+1)*cols], w[(f+1)*cols:(f+2)*cols],
				w[(f+2)*cols:(f+3)*cols], w[(f+3)*cols:(f+4)*cols], panel)
			for r := range s {
				putPixels(out[(f+r)*rows+p0:], &s[r], n)
			}
		}
		for ; f < f1; f++ {
			v := &s[0]
			v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = kern.Dot8(w[f*cols:(f+1)*cols], panel)
			putPixels(out[f*rows+p0:], v, n)
		}
	}
}

// putPixels stores the n live pixels of one panel's dots at o. A full
// panel is stored element by element: a whole-array assignment between
// the two pointers, which may overlap, compiles to a runtime.memmove call.
func putPixels(o []float32, v *[8]float32, n int) {
	if n == 8 {
		d := (*[8]float32)(o)
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
		return
	}
	copy(o[:n], v[:n])
}

// pixelPanel builds the panel dst[8t+c] = U[p0+c][t] for group g and
// returns its live pixel count; columns past the last pixel are zero.
// At unit stride, eight adjacent pixels of one output row are a contiguous
// copy per tap, and two runs of 4 in one row each are two; a panel that
// crosses a row elsewhere, runs out of pixels or strides gathers per
// pixel.
func (k *Kernel) pixelPanel(dst, src []float32, g, p0 int) int {
	if k.spec.Sx == 1 && p0+8 <= k.rows {
		if p0%k.ox+8 <= k.ox {
			copyTaps8(dst, src[k.origin(g, p0):], k.taps)
			return 8
		}
		if p0%k.ox+4 <= k.ox && (p0+4)%k.ox+4 <= k.ox {
			copyTaps4x2(dst, src[k.origin(g, p0):], src[k.origin(g, p0+4):], k.taps)
			return 8
		}
	}
	n := min(8, k.rows-p0)
	var off [8]int
	for c := 0; c < n; c++ {
		off[c] = k.origin(g, p0+c)
	}
	for t, o := range k.taps {
		d := dst[8*t : 8*t+8]
		for c := range d {
			d[c] = 0
			if c < n {
				d[c] = src[o+off[c]]
			}
		}
	}
	return n
}

// BackwardInputBatch computes Eq. 3 by U_E = EOmatᵀ · Wmat followed by
// col2im. The work units are (image, input channel) pairs — images write
// disjoint gradients, so a few-channel layer still splits evenly: per
// panel of up to pw pixels of one output row, every non-zero EO element
// scatters its weight row (the unit's taps) into an L1-resident panel of
// U_E, which is folded into the zero-bordered input gradient 8 pixels at a
// time before the next panel.
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("unfoldgemm: BackwardInputBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, w)
	for i := range eos {
		conv.CheckOutput(s, eos[i])
		conv.CheckInput(s, eis[i])
	}
	units, per := len(eos)*s.Nc, k.pw*k.cols
	if s.Px != 0 || s.Py != 0 {
		per += s.Nc * k.plane
	}
	scratch := c.Get(min(k.workers, units) * per)
	if k.workers <= 1 {
		k.backwardInputUnits(eis, eos, w.Data, scratch, 0, units)
	} else {
		k.fan(units, scratch, per, func(lo, hi int, buf []float32) {
			k.backwardInputUnits(eis, eos, w.Data, buf, lo, hi)
		})
	}
	c.Put(scratch)
}

// backwardInputUnits computes the BP-EI work units [lo, hi) in buf's
// panel and zero-bordered planes.
func (k *Kernel) backwardInputUnits(eis, eos []*tensor.Tensor, w, buf []float32, lo, hi int) {
	nc := k.spec.Nc
	panel, pad := buf[:k.pw*k.cols], buf[k.pw*k.cols:]
	for u := lo; u < hi; {
		i, clo := u/nc, u%nc
		chi := min(nc, clo+hi-u)
		k.backwardInput(eis[i], pad, eos[i].Data, w, panel, clo, chi)
		u += chi - clo
	}
}

// backwardInput computes input channels [clo, chi) of ei, folding into the
// matching planes of pad (or of ei itself when pad is empty: the spec does
// not pad).
func (k *Kernel) backwardInput(ei *tensor.Tensor, pad, eo, w, panel []float32, clo, chi int) {
	s := &k.spec
	rows, cols, ox := k.rows, k.cols, k.ox
	gnc, gnf, fxy := s.GroupNc(), s.GroupNf(), s.Fy*s.Fx
	dst := ei.Data
	if len(pad) > 0 {
		dst = pad
	}
	clear(dst[clo*k.plane : chi*k.plane])
	for g := clo / gnc; g*gnc < chi; g++ {
		tlo, thi := (max(clo, g*gnc)-g*gnc)*fxy, (min(chi, (g+1)*gnc)-g*gnc)*fxy
		tw, taps := thi-tlo, k.taps[tlo:thi]
		for p0 := 0; p0 < rows; p0 += min(k.pw, ox-p0%ox) {
			n := min(k.pw, ox-p0%ox)
			clear(panel[:n*tw])
			for f := g * gnf; f < (g+1)*gnf; f++ {
				wrow := w[f*cols+tlo : f*cols+thi]
				for c, e := range eo[f*rows+p0 : f*rows+p0+n] {
					if e != 0 {
						kern.Axpy(panel[c*tw:(c+1)*tw], wrow, e)
					}
				}
			}
			for x := 0; x < n; x += 8 {
				m, o, r := min(8, n-x), k.origin(g, p0+x), panel[x*tw:]
				c0 := 0
				switch {
				case m == 8 && s.Sx == 1:
					foldTaps8(dst[o:], taps, r[:tw], r[tw:2*tw], r[2*tw:3*tw], r[3*tw:4*tw],
						r[4*tw:5*tw], r[5*tw:6*tw], r[6*tw:7*tw], r[7*tw:8*tw])
					continue
				case m >= 4 && s.Sx == 1:
					foldTaps4(dst[o:], taps, r[:tw], r[tw:2*tw], r[2*tw:3*tw], r[3*tw:4*tw])
					c0 = 4
				}
				for t := tw - 1; t >= 0; t-- {
					for c := c0; c < m; c++ {
						dst[o+taps[t]+c*s.Sx] += r[c*tw+t]
					}
				}
			}
		}
	}
	if len(pad) == 0 {
		return
	}
	for ch := clo; ch < chi; ch++ {
		for y := 0; y < s.Ny; y++ {
			o := ch*k.plane + (y+s.Py)*k.px + s.Px
			copy(ei.Row3(ch, y), pad[o:o+s.Nx])
		}
	}
}

// BackwardWeightsBatch computes dw = Σ_i EOmat_i · U_i (Eq. 4 summed over
// the batch, images in order). dw is overwritten. The batch runs in
// sub-batches of up to nb images, fanned out once each; the work units are
// (group, block of 8-tap panels): each builds its pixels × 8 panels of U
// for every image of the sub-batch and runs every EO row of its group
// against them. A block holds as many panels as fit in about 16 KB, so
// small images update a contiguous run of each dW row instead of 8 floats
// at a time, and small outputs gather several images into one reduction.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("unfoldgemm: BackwardWeightsBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, dw)
	for i := range ins {
		conv.CheckInput(s, ins[i])
		conv.CheckOutput(s, eos[i])
	}
	units := s.G() * k.blocks()
	nb := min(k.nb, len(ins))
	per := k.blk * nb * k.rows * 8
	dw.Zero()
	var pads, eop []float32
	if s.Px != 0 || s.Py != 0 {
		pads = c.Get(nb * s.Nc * k.plane)
	}
	if nb > 1 {
		eop = c.Get(s.Nf * nb * k.rows)
	}
	scratch := c.Get(min(k.workers, units) * per)
	for b0 := 0; b0 < len(ins); b0 += nb {
		sub := ins[b0:min(b0+nb, len(ins))]
		for i := 0; pads != nil && i < len(sub); i++ {
			k.source(pads[i*s.Nc*k.plane:(i+1)*s.Nc*k.plane], sub[i])
		}
		eo := eos[b0].Data
		if len(sub) > 1 {
			eo = k.packEO(eop, eos[b0:b0+len(sub)])
		}
		if k.workers <= 1 {
			k.backwardWeights(dw.Data, pads, eo, scratch, sub, 0, units)
			continue
		}
		k.fan(units, scratch, per, func(lo, hi int, panels []float32) {
			k.backwardWeights(dw.Data, pads, eo, panels, sub, lo, hi)
		})
	}
	c.Put(scratch)
	if eop != nil {
		c.Put(eop)
	}
	if pads != nil {
		c.Put(pads)
	}
}

// packEO lays the sub-batch's EO rows out feature-major in dst, each
// feature's rows of every image back to back — the operand order of the
// panels — and returns the packed rows.
func (k *Kernel) packEO(dst []float32, eos []*tensor.Tensor) []float32 {
	rows, m := k.rows, len(eos)
	dst = dst[:k.spec.Nf*m*rows]
	for i, eo := range eos {
		for f := 0; f < k.spec.Nf; f++ {
			copy(dst[(f*m+i)*rows:(f*m+i+1)*rows], eo.Data[f*rows:(f+1)*rows])
		}
	}
	return dst
}

// blocks returns the number of BP-dW panel blocks per group.
func (k *Kernel) blocks() int { return ((k.cols+7)/8 + k.blk - 1) / k.blk }

// backwardWeights accumulates the BP-dW work units [lo, hi) of the m
// images of sub: panel j of image i sits at block slot (j−j0)·m+i, so one
// panel's m images are a single K = m·pixels operand in image order, as
// the feature's rows of eo are (packEO). The group's EO rows run four at a
// time (kern.Dot8x4Seg: the 4×8 dW block is loaded once, adds each image's
// fresh dot, and is stored once), the rest one image at a time (kern.Dot8).
// pads holds the sub-batch's zero-bordered images when the spec pads.
func (k *Kernel) backwardWeights(dw, pads, eo, panels []float32, sub []*tensor.Tensor, lo, hi int) {
	rows, cols, size := k.rows, k.cols, k.rows*8
	m, psz := len(sub), k.spec.Nc*k.plane
	gnf, npan, nblk := k.spec.GroupNf(), (cols+7)/8, k.blocks()
	n := m * rows // one feature's EO floats, and K of a panel's operand
	var v [8]float32
	for u := lo; u < hi; u++ {
		g, j0 := u/nblk, u%nblk*k.blk
		j1 := min(j0+k.blk, npan)
		for j := j0; j < j1; j++ {
			offs, live := k.tapOffsets(g, j*8)
			for i, in := range sub {
				src := in.Data
				if pads != nil {
					src = pads[i*psz : (i+1)*psz]
				}
				o := ((j-j0)*m + i) * size
				k.tapPanel(panels[o:o+size], src, &offs, live)
			}
		}
		// This unit's dW columns are [c0, c1), one panel per 8.
		f, f1 := g*gnf, (g+1)*gnf
		c0, c1 := j0*8, min(j1*8, cols)
		for ; f+4 <= f1; f += 4 {
			a0, a1, a2, a3 := eo[f*n:(f+1)*n], eo[(f+1)*n:(f+2)*n], eo[(f+2)*n:(f+3)*n], eo[(f+3)*n:(f+4)*n]
			for c, p := c0, panels; c < c1; c, p = c+8, p[m*size:] {
				if c+8 <= c1 {
					kern.Dot8x4Seg(dw[f*cols+c:], cols, a0, a1, a2, a3, p[:m*size], rows)
					continue
				}
				// The ragged last panel runs through a full-width copy.
				var t [32]float32
				for r := 0; r < 4; r++ {
					copy(t[8*r:8*r+c1-c], dw[(f+r)*cols+c:(f+r)*cols+c1])
				}
				kern.Dot8x4Seg(t[:], 8, a0, a1, a2, a3, p[:m*size], rows)
				for r := 0; r < 4; r++ {
					copy(dw[(f+r)*cols+c:(f+r)*cols+c1], t[8*r:8*r+c1-c])
				}
			}
		}
		for ; f < f1; f++ {
			for c, p := c0, panels; c < c1; c, p = c+8, p[m*size:] {
				for i := 0; i < m; i++ {
					v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = kern.Dot8(eo[f*n+i*rows:f*n+(i+1)*rows], p[i*size:(i+1)*size])
					addDots(dw[f*cols+c:f*cols+c1], &v)
				}
			}
		}
	}
}

// addDots adds one tap panel's dots into d, at most 8 of them.
func addDots(d []float32, v *[8]float32) {
	if len(d) >= 8 {
		o := (*[8]float32)(d)
		for c := range o {
			o[c] += v[c]
		}
		return
	}
	for c := range d {
		d[c] += v[c]
	}
}

// tapOffsets returns the image offsets of taps t0..t0+7 of group g from
// the window origin of output pixel 0, and how many of those taps exist;
// slots past the last live tap repeat its offset.
func (k *Kernel) tapOffsets(g, t0 int) (o [8]int, n int) {
	n = min(8, k.cols-t0)
	g0 := k.origin(g, 0)
	for c := range o {
		o[c] = g0 + k.taps[t0+min(c, n-1)]
	}
	return o, n
}

// tapPanel builds the panel dst[8p+c] = U[p][t0+c] of image src, where o
// and n are tapOffsets(g, t0); columns past the n live taps are zero. At
// unit stride each output row is one kern.Gather8 over eight shifted image
// rows.
func (k *Kernel) tapPanel(dst, src []float32, o *[8]int, n int) {
	s := &k.spec
	ox := k.ox
	for rb, d := 0, dst; len(d) > 0; rb, d = rb+s.Sy*k.px, d[ox*8:] {
		if s.Sx == 1 {
			kern.Gather8(d[:ox*8], src[o[0]+rb:], src[o[1]+rb:], src[o[2]+rb:], src[o[3]+rb:],
				src[o[4]+rb:], src[o[5]+rb:], src[o[6]+rb:], src[o[7]+rb:])
			continue
		}
		for x := 0; x < ox; x++ {
			for c := 0; c < 8; c++ {
				d[8*x+c] = src[o[c]+rb+x*s.Sx]
			}
		}
	}
	for p := 0; n < 8 && p < k.rows; p++ {
		clear(dst[8*p+n : 8*p+8])
	}
}

// Generator returns an engine.Generator for this technique at the given
// fan-out. Name is "unfold-gemm" for workers <= 1 and
// "unfold-parallel-gemm" otherwise (the paper's Parallel-GEMM baseline).
func Generator(workers int) engine.Generator {
	name := "unfold-gemm"
	if workers > 1 {
		name = "unfold-parallel-gemm"
	}
	return engine.Generator{
		Name: name,
		New:  func(s conv.Spec) engine.Kernel { return New(s, workers) },
	}
}
