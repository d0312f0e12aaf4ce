package tensor

import "fmt"

// The data-layout transformations the Sparse-Kernel depends on (paper §4.2
// "Vectorization"), written into caller-owned storage because the kernel
// runs them on every invocation and keeps preallocated scratch:
//
//   - CHWToHWCInto / HWCToCHWInto move the channel (or feature) dimension
//     into the fastest-varying position so a kernel can operate on a
//     contiguous channel vector per spatial location.
//   - FCKKToFKKCInto reorders weights [f][c][ky][kx] -> [f][ky][kx][c] so
//     that for a fixed feature and kernel row the [kx][c] block is one
//     contiguous vector, matching a kernel-row window of an HWC image —
//     Eq. 13's W' with the kx and c loops merged. FKKCToFCKKInto inverts it.

// CHWToHWCInto writes the [H][W][C] layout of src ([C][H][W]) into dst.
func CHWToHWCInto(dst, src *Tensor) {
	if src.Rank() != 3 || dst.Rank() != 3 {
		panic("tensor: CHWToHWCInto needs rank-3 tensors")
	}
	c, h, w := src.Dims[0], src.Dims[1], src.Dims[2]
	if dst.Dims[0] != h || dst.Dims[1] != w || dst.Dims[2] != c {
		panic(fmt.Sprintf("tensor: CHWToHWCInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	for ci := 0; ci < c; ci++ {
		for yi := 0; yi < h; yi++ {
			row := src.Row3(ci, yi)
			base := yi * w * c
			for xi := 0; xi < w; xi++ {
				dst.Data[base+xi*c+ci] = row[xi]
			}
		}
	}
}

// HWCToCHWInto writes the [C][H][W] layout of src ([H][W][C]) into dst.
func HWCToCHWInto(dst, src *Tensor) {
	if src.Rank() != 3 || dst.Rank() != 3 {
		panic("tensor: HWCToCHWInto needs rank-3 tensors")
	}
	h, w, c := src.Dims[0], src.Dims[1], src.Dims[2]
	if dst.Dims[0] != c || dst.Dims[1] != h || dst.Dims[2] != w {
		panic(fmt.Sprintf("tensor: HWCToCHWInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	for yi := 0; yi < h; yi++ {
		for xi := 0; xi < w; xi++ {
			src0 := src.Row3(yi, xi)
			for ci := 0; ci < c; ci++ {
				dst.Data[(ci*h+yi)*w+xi] = src0[ci]
			}
		}
	}
}

// FCKKToFKKCInto writes the [F][Ky][Kx][C] layout of src ([F][C][Ky][Kx])
// into dst.
func FCKKToFKKCInto(dst, src *Tensor) {
	if src.Rank() != 4 || dst.Rank() != 4 {
		panic("tensor: FCKKToFKKCInto needs rank-4 tensors")
	}
	f, c, ky, kx := src.Dims[0], src.Dims[1], src.Dims[2], src.Dims[3]
	if dst.Dims[0] != f || dst.Dims[1] != ky || dst.Dims[2] != kx || dst.Dims[3] != c {
		panic(fmt.Sprintf("tensor: FCKKToFKKCInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	kk := ky * kx
	for fi := 0; fi < f; fi++ {
		d := dst.Data[fi*kk*c:][:kk*c]
		for ci := 0; ci < c; ci++ {
			for i, v := range src.Data[(fi*c+ci)*kk:][:kk] {
				d[i*c+ci] = v
			}
		}
	}
}

// FKKCToFCKKInto writes the [F][C][Ky][Kx] layout of src ([F][Ky][Kx][C])
// into dst.
func FKKCToFCKKInto(dst, src *Tensor) {
	if src.Rank() != 4 || dst.Rank() != 4 {
		panic("tensor: FKKCToFCKKInto needs rank-4 tensors")
	}
	f, ky, kx, c := src.Dims[0], src.Dims[1], src.Dims[2], src.Dims[3]
	if dst.Dims[0] != f || dst.Dims[1] != c || dst.Dims[2] != ky || dst.Dims[3] != kx {
		panic(fmt.Sprintf("tensor: FKKCToFCKKInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	kk := ky * kx
	for fi := 0; fi < f; fi++ {
		s := src.Data[fi*kk*c:][:kk*c]
		for ci := 0; ci < c; ci++ {
			d := dst.Data[(fi*c+ci)*kk:][:kk]
			for i := range d {
				d[i] = s[i*c+ci]
			}
		}
	}
}
