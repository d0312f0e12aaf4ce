package blockedconv

// Driver loop of the blocked forward pass. Like gemm's pack/driver code,
// this file is deliberately outside the bce_check protected set: its
// slicings run once per (feature-block, channel-block, ky, y) row, not per
// element — the per-element work lives in kernels.go.

import (
	"spgcnn/internal/conv"
	"spgcnn/internal/tensor"
)

// forwardBlocked computes one sample's forward convolution entirely in the
// blocked layout: out [Fb][OutY][OutX][8] = conv(in [Cb][Ny][Nx][8],
// wb [Fb][Cb][Fy][Fx][8c][8f]). For each output feature block the plane is
// zeroed once, then contributions accumulate over (cb, ky); within one
// (cb, ky) the micro-kernel reduces (kx, c-lane) in a single pass over the
// contiguous weight panel.
func forwardBlocked(s conv.Spec, out, in, wb *tensor.Tensor) {
	fbN := tensor.Blocks(s.Nf)
	cbN := tensor.Blocks(s.Nc)
	oy, ox := s.OutY(), s.OutX()
	planeN := oy * ox * tensor.Block
	rowN := s.Nx * tensor.Block
	panelN := s.Fx * tensor.Block * tensor.Block
	step := s.Sx * tensor.Block
	for fo := 0; fo < fbN; fo++ {
		plane := out.Data[fo*planeN : (fo+1)*planeN]
		clear(plane)
		for cb := 0; cb < cbN; cb++ {
			for ky := 0; ky < s.Fy; ky++ {
				wOff := (((fo*cbN+cb)*s.Fy + ky) * s.Fx) * tensor.Block * tensor.Block
				wp := wb.Data[wOff : wOff+panelN]
				for y := 0; y < oy; y++ {
					iy := y*s.Sy + ky
					iOff := (cb*s.Ny + iy) * rowN
					irow := in.Data[iOff : iOff+rowN]
					orow := plane[y*ox*tensor.Block : (y+1)*ox*tensor.Block]
					accRow(orow, irow, wp, step)
				}
			}
		}
	}
}
