package tensor

import "fmt"

// This file implements the data-layout transformations the spg-CNN code
// generators depend on (paper §4.2 "Vectorization" and §4.3 "Strided
// Convolutions"):
//
//   - CHWToHWC / HWCToCHW move the channel (or feature) dimension into the
//     fastest-varying position so a kernel can operate on a contiguous
//     channel vector per spatial location. The Sparse-Kernel transforms
//     weights and outputs so c is fastest, and inputs so f is fastest.
//   - FCKKToFKKC reorders weights [f][c][ky][kx] -> [f][ky][kx][c] so that
//     for a fixed feature and kernel row the [kx][c] block is one contiguous
//     vector, matching a kernel-row window of an HWC image — Eq. 13's W'
//     with the kx and c loops merged.
//   - StrideSplit implements Eq. 21: I[y][x] -> I[y][s][x'] with
//     s = x mod sx, turning strided accesses into unit-stride vector loads.

// CHWToHWC converts a [C][H][W] tensor into [H][W][C] layout.
func CHWToHWC(t *Tensor) *Tensor {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: CHWToHWC needs rank-3 input, got %v", t.Dims))
	}
	c, h, w := t.Dims[0], t.Dims[1], t.Dims[2]
	out := New(h, w, c)
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h; yi++ {
			src := t.Row3(ci, yi)
			for xi := 0; xi < w; xi++ {
				out.Data[(yi*w+xi)*c+ci] = src[xi]
			}
		}
	}
	return out
}

// HWCToCHW converts a [H][W][C] tensor into [C][H][W] layout.
func HWCToCHW(t *Tensor) *Tensor {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: HWCToCHW needs rank-3 input, got %v", t.Dims))
	}
	h, w, c := t.Dims[0], t.Dims[1], t.Dims[2]
	out := New(c, h, w)
	for yi := 0; yi < h; yi++ {
		for xi := 0; xi < w; xi++ {
			src := t.Row3(yi, xi)
			for ci := 0; ci < c; ci++ {
				out.Data[(ci*h+yi)*w+xi] = src[ci]
			}
		}
	}
	return out
}

// FCKKToFKKC reorders convolution weights from the canonical
// [F][C][Ky][Kx] layout to [F][Ky][Kx][C], so that W'[f][ky] is one
// contiguous Kx·C vector with c fastest (Eq. 13's W' with kx and c merged).
func FCKKToFKKC(w *Tensor) *Tensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: FCKKToFKKC needs rank-4 input, got %v", w.Dims))
	}
	out := New(w.Dims[0], w.Dims[2], w.Dims[3], w.Dims[1])
	FCKKToFKKCInto(out, w)
	return out
}

// FKKCToFCKK inverts FCKKToFKKC.
func FKKCToFCKK(w *Tensor) *Tensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: FKKCToFCKK needs rank-4 input, got %v", w.Dims))
	}
	out := New(w.Dims[0], w.Dims[3], w.Dims[1], w.Dims[2])
	FKKCToFCKKInto(out, w)
	return out
}

// StrideSplit implements the paper's Eq. 21 layout transform for strided
// convolutions. The input [C][H][W] becomes [C][H][sx][ceil(W/sx)] where
// element (c, y, s, x') holds I[c][y][x'*sx + s]. Positions past the end of
// a row (when sx does not divide W) are zero-padded, which is harmless
// because a valid convolution never reads them.
func StrideSplit(t *Tensor, sx int) *Tensor {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: StrideSplit needs rank-3 input, got %v", t.Dims))
	}
	if sx < 1 {
		panic(fmt.Sprintf("tensor: StrideSplit stride %d < 1", sx))
	}
	c, h, w := t.Dims[0], t.Dims[1], t.Dims[2]
	wq := (w + sx - 1) / sx
	out := New(c, h, sx, wq)
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h; yi++ {
			src := t.Row3(ci, yi)
			for xi := 0; xi < w; xi++ {
				s := xi % sx
				xq := xi / sx
				out.Data[((ci*h+yi)*sx+s)*wq+xq] = src[xi]
			}
		}
	}
	return out
}

// StrideMerge inverts StrideSplit, recovering the original [C][H][W]
// tensor given the original width w.
func StrideMerge(t *Tensor, w int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: StrideMerge needs rank-4 input, got %v", t.Dims))
	}
	c, h, sx, wq := t.Dims[0], t.Dims[1], t.Dims[2], t.Dims[3]
	if wq*sx < w {
		panic(fmt.Sprintf("tensor: StrideMerge width %d exceeds capacity %d", w, wq*sx))
	}
	out := New(c, h, w)
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h; yi++ {
			dst := out.Row3(ci, yi)
			for xi := 0; xi < w; xi++ {
				dst[xi] = t.Data[((ci*h+yi)*sx+xi%sx)*wq+xi/sx]
			}
		}
	}
	return out
}

// Pad returns a copy of a [C][H][W] tensor with py rows and px columns of
// zeros added on each spatial border, used by networks whose layer
// geometry requires padding (Table 2 notes image padding/cropping).
func Pad(t *Tensor, py, px int) *Tensor {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Pad needs rank-3 input, got %v", t.Dims))
	}
	if py < 0 || px < 0 {
		panic("tensor: negative padding")
	}
	c, h, w := t.Dims[0], t.Dims[1], t.Dims[2]
	out := New(c, h+2*py, w+2*px)
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h; yi++ {
			copy(out.Row3(ci, yi+py)[px:px+w], t.Row3(ci, yi))
		}
	}
	return out
}

// CropGrad is the adjoint of Pad: it extracts the interior gradient,
// discarding contributions to the padded border.
func CropGrad(t *Tensor, py, px int) *Tensor {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: CropGrad needs rank-3 input, got %v", t.Dims))
	}
	c, h, w := t.Dims[0], t.Dims[1], t.Dims[2]
	if h <= 2*py || w <= 2*px {
		panic(fmt.Sprintf("tensor: CropGrad padding (%d,%d) too large for %v", py, px, t.Dims))
	}
	out := New(c, h-2*py, w-2*px)
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h-2*py; yi++ {
			copy(out.Row3(ci, yi), t.Row3(ci, yi+py)[px:px+w-2*px])
		}
	}
	return out
}
