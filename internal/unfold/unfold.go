// Package unfold implements the input-unfolding step (im2col) of the
// paper's baseline execution method, Unfold+Parallel-GEMM (§2.3, Fig. 2b),
// together with its adjoint fold (col2im) needed by back-propagation.
//
// Unfolding flattens the inputs of each kernel application into a row
// vector and stacks the rows, turning the convolution into a matrix
// multiply O = W·Uᵀ (Fig. 2c). The cost — the reason §3.1 exists — is that
// each input element is replicated up to Fx·Fy times, inflating memory
// traffic and destroying the convolution's intrinsic arithmetic intensity.
//
// This package materializes U: it is the explicit form the figures, the
// prepacked-weights engine and the baselines measure. The deployed
// unfold+GEMM engine (internal/unfoldgemm) never builds U; it packs GEMM
// panels of U straight from the tensors. Padding taps unfold as zeros and
// dilated taps gather strided input elements; a grouped convolution is G
// ungrouped ones over channel slices, so Im2col takes ungrouped specs.
package unfold

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/gemm"
	"spgcnn/internal/tensor"
)

// Rows returns the number of rows of the unfolded matrix U: one per output
// pixel (OutY·OutX).
func Rows(s conv.Spec) int { return s.OutY() * s.OutX() }

// Cols returns the number of columns of U: one per (channel, ky, kx) tap
// of a single group, i.e. (Nc/G)·Fy·Fx (Nc·Fy·Fx when ungrouped).
func Cols(s conv.Spec) int { return s.GroupNc() * s.Fy * s.Fx }

func checkU(s conv.Spec, u *gemm.Matrix) {
	if u.Rows != Rows(s) || u.Cols != Cols(s) {
		panic(fmt.Sprintf("unfold: U is %dx%d, want %dx%d", u.Rows, u.Cols, Rows(s), Cols(s)))
	}
}

func checkUngrouped(s conv.Spec) {
	s.MustValidate()
	if s.G() != 1 {
		panic(fmt.Sprintf("unfold: grouped spec %v; unfold each group's ungrouped sub-spec", s))
	}
}

// Im2col unfolds input in ([Nc][Ny][Nx]) into the matrix U
// (Rows(s) × Cols(s)): row (y·OutX + x) holds, channel-major then ky then
// kx, the (possibly padded/dilated) input window that produces output
// pixel (y, x). This matches the paper's Fig. 2b, where each channel's
// unfolded block is stacked left-to-right. Taps that fall outside the
// input unfold as zeros.
func Im2col(s conv.Spec, u *gemm.Matrix, in *tensor.Tensor) {
	checkUngrouped(s)
	conv.CheckInput(s, in)
	checkU(s, u)
	oy, ox := s.OutY(), s.OutX()
	fxy := s.Fy * s.Fx
	dx, dy := s.DilX(), s.DilY()
	for y := 0; y < oy; y++ {
		for x := 0; x < ox; x++ {
			dst := u.Row(y*ox + x)
			ix0 := x*s.Sx - s.Px
			for c := 0; c < s.Nc; c++ {
				base := c * fxy
				for ky := 0; ky < s.Fy; ky++ {
					drow := dst[base+ky*s.Fx : base+(ky+1)*s.Fx]
					iy := y*s.Sy + ky*dy - s.Py
					if iy < 0 || iy >= s.Ny {
						clear(drow)
						continue
					}
					irow := in.Row3(c, iy)
					if dx == 1 && ix0 >= 0 && ix0+s.Fx <= s.Nx {
						copy(drow, irow[ix0:ix0+s.Fx])
						continue
					}
					for kx := 0; kx < s.Fx; kx++ {
						ix := ix0 + kx*dx
						if ix < 0 || ix >= s.Nx {
							drow[kx] = 0
						} else {
							drow[kx] = irow[ix]
						}
					}
				}
			}
		}
	}
}

// NewU allocates the unfolded matrix for s (one group's worth).
func NewU(s conv.Spec) *gemm.Matrix { return gemm.NewMatrix(Rows(s), Cols(s)) }

// Col2im folds the matrix U back into input space, ACCUMULATING overlapping
// windows: in[c, y·sy+ky·dy−py, x·sx+kx·dx−px] += U[(y,x), (c,ky,kx)]. It
// is the exact adjoint of Im2col (padding taps are dropped), which is what
// makes Unfold+GEMM back-propagation (EI = fold(Wᵀ·EO)) correct. The
// destination is zeroed first, then every element sums its pixels in
// (y, x) order.
func Col2im(s conv.Spec, in *tensor.Tensor, u *gemm.Matrix) {
	checkUngrouped(s)
	conv.CheckInput(s, in)
	checkU(s, u)
	in.Zero()
	oy, ox := s.OutY(), s.OutX()
	fxy := s.Fy * s.Fx
	dx, dy := s.DilX(), s.DilY()
	for y := 0; y < oy; y++ {
		for x := 0; x < ox; x++ {
			src := u.Row(y*ox + x)
			ix0 := x*s.Sx - s.Px
			for c := 0; c < s.Nc; c++ {
				base := c * fxy
				for ky := 0; ky < s.Fy; ky++ {
					iy := y*s.Sy + ky*dy - s.Py
					if iy < 0 || iy >= s.Ny {
						continue
					}
					irow := in.Row3(c, iy)
					srow := src[base+ky*s.Fx:]
					if dx == 1 && ix0 >= 0 && ix0+s.Fx <= s.Nx {
						addTo(irow[ix0:ix0+s.Fx], srow)
						continue
					}
					for kx := 0; kx < s.Fx; kx++ {
						ix := ix0 + kx*dx
						if ix >= 0 && ix < s.Nx {
							irow[ix] += srow[kx]
						}
					}
				}
			}
		}
	}
}

// addTo accumulates dst[i] += src[i] over len(dst) elements in streaming
// form, so the element loop compiles with no bounds checks (src must be at
// least as long as dst).
func addTo(dst, src []float32) {
	n := len(dst)
	if n > len(src) {
		panic("unfold: addTo source too short")
	}
	src = src[:n]
	for len(dst) >= 4 && len(src) >= 4 {
		dst[0] += src[0]
		dst[1] += src[1]
		dst[2] += src[2]
		dst[3] += src[3]
		dst = dst[4:]
		src = src[4:]
	}
	for len(dst) >= 1 && len(src) >= 1 {
		dst[0] += src[0]
		dst = dst[1:]
		src = src[1:]
	}
}

// WeightMatrix flattens weights [Nf][Nc/G][Fy][Fx] into the Nf × Cols(s)
// matrix of Fig. 2c: row f is feature f's weights, channel-major. Because
// the canonical weight layout is already row-major in exactly this order,
// this is a reshape (the returned matrix aliases w's data). For grouped
// specs, rows [g·Nf/G, (g+1)·Nf/G) form group g's weight matrix.
func WeightMatrix(s conv.Spec, w *tensor.Tensor) *gemm.Matrix {
	conv.CheckWeights(s, w)
	return gemm.FromSlice(w.Data, s.Nf, Cols(s))
}

// OutputMatrix views output tensor o ([Nf][OutY][OutX]) as the Nf × Rows(s)
// matrix O of Fig. 2c (aliasing o's data).
func OutputMatrix(s conv.Spec, o *tensor.Tensor) *gemm.Matrix {
	conv.CheckOutput(s, o)
	return gemm.FromSlice(o.Data, s.Nf, Rows(s))
}
