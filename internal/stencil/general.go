package stencil

import (
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// Generalized-spec forward path: the register-tiled schedule and its
// specialized tap kernels are generated for plain geometry (no padding,
// unit dilation, one group). For generalized specs the stencil stays a
// direct, unfold-free engine but runs this row-streamed loop nest instead:
// per tap, the in-bounds output-column interval is computed once
// (tapBounds) so the inner loop carries no per-element bounds tests —
// padding costs interval arithmetic, not branches.

// tapBounds returns the half-open output-column range [lo, hi) for which
// 0 <= x·sx + off < nx, i.e. the columns whose tap read stays inside the
// input row.
func tapBounds(ox, sx, off, nx int) (lo, hi int) {
	lo = 0
	if off < 0 {
		lo = (-off + sx - 1) / sx
	}
	hi = ox
	if m := (nx-1-off)/sx + 1; m < hi {
		hi = m
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// forwardGeneralBatch computes Eq. 2 for a generalized spec: for each
// (feature, output row), taps are streamed into an arena-backed
// accumulator row; dilated taps read offset kx·dx − px, padding taps are
// clipped by tapBounds, and grouped specs restrict channels to the
// feature's group.
func (k *Kernel) forwardGeneralBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	s := k.spec
	conv.CheckWeights(s, w)
	ox := s.OutX()
	acc := c.Get(ox)
	for i := range ins {
		conv.CheckInput(s, ins[i])
		conv.CheckOutput(s, outs[i])
		k.forwardGeneralOne(acc, outs[i], ins[i], w)
	}
	c.Put(acc)
}

func (k *Kernel) forwardGeneralOne(acc []float32, out, in, w *tensor.Tensor) {
	s := k.spec
	oy, ox := s.OutY(), s.OutX()
	gnc, gnf := s.GroupNc(), s.GroupNf()
	dx, dy := s.DilX(), s.DilY()
	acc = acc[:ox]
	for f := 0; f < s.Nf; f++ {
		cbase := (f / gnf) * gnc
		for y := 0; y < oy; y++ {
			clear(acc)
			for cc := 0; cc < gnc; cc++ {
				wBase := (f*gnc + cc) * s.Fy * s.Fx
				for ky := 0; ky < s.Fy; ky++ {
					iy := y*s.Sy + ky*dy - s.Py
					if iy < 0 || iy >= s.Ny {
						continue
					}
					irow := in.Row3(cbase+cc, iy)
					for kx := 0; kx < s.Fx; kx++ {
						wv := w.Data[wBase+ky*s.Fx+kx]
						if wv == 0 {
							continue
						}
						off := kx*dx - s.Px
						lo, hi := tapBounds(ox, s.Sx, off, s.Nx)
						for x := lo; x < hi; x++ {
							acc[x] += wv * irow[x*s.Sx+off]
						}
					}
				}
			}
			copy(out.Row3(f, y), acc)
		}
	}
}
