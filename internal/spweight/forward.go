package spweight

// Driver loop of the sparse-weight forward pass. Like gemm's pack/driver
// code, this file is deliberately outside the bce_check protected set: its
// slicings run once per (feature, tap, y) row, not per element — the
// per-element work lives in kernels.go.

import (
	"spgcnn/internal/conv"
	"spgcnn/internal/kern"
	"spgcnn/internal/tensor"
)

// forwardCSR computes one sample's forward pass from the tap plan. The
// output plane for feature f is zeroed, then each tap (in the reference
// (c, ky, kx) order) adds val·I[tap-window] across all output pixels.
// Per-pixel this is the exact reference addition sequence minus the
// zero-weight terms, so the result is bit-identical to the dense engines.
func forwardCSR(s conv.Spec, p *csrPlan, out, in *tensor.Tensor) {
	oy, ox := s.OutY(), s.OutX()
	rowStep := s.Sy * s.Nx
	for f := 0; f < s.Nf; f++ {
		plane := out.Data[f*oy*ox : (f+1)*oy*ox]
		clear(plane)
		lo, hi := int(p.rowStart[f]), int(p.rowStart[f+1])
		taps := p.off[lo:hi]
		vals := p.val[lo:hi]
		for t := range taps {
			if t >= len(vals) {
				break
			}
			off := int(taps[t])
			v := vals[t]
			for y := 0; y < oy; y++ {
				src := in.Data[off+y*rowStep:]
				dst := plane[y*ox : (y+1)*ox]
				if s.Sx == 1 {
					kern.Axpy(dst, src, v)
				} else {
					axpyRowStride(dst, src, v, s.Sx)
				}
			}
		}
	}
}
