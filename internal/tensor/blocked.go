package tensor

import "fmt"

// This file implements the channel-blocked NCHWc activation layout
// (Georganas et al., "Anatomy of High-Performance Deep Learning
// Convolutions on SIMD Architectures"): the channel dimension is split
// into blocks of Block lanes and the lane index becomes the
// fastest-varying dimension, so a [C][H][W] activation is stored as
// [ceil(C/Block)][H][W][Block]. With the block factor matching the
// micro-kernel width (kern.Dot8's 8-wide panels), the panels the
// packed GEMM path manufactures by copying fall directly out of the data
// layout: a blocked convolution engine reads its micro-kernel operands
// contiguously with no PackB copies and no im2col.
//
// Channel counts not divisible by Block get a partial tail block whose
// unused lanes are zero-filled. Zero lanes multiply against zero weight
// lanes (BlockWeights pads the same way), so they contribute exact zeros
// and the tail needs no masking in the hot loops.

// Layout identifies the memory layout of a tensor's Data. The zero value
// is the canonical row-major layout, so existing construction sites are
// unchanged.
type Layout uint8

const (
	// NCHW is the canonical layout: activations [C][H][W], weights
	// [F][C][Ky][Kx].
	NCHW Layout = iota
	// NCHW8 is the channel-blocked layout: activations
	// [ceil(C/8)][H][W][8]; weights [ceil(F/8)][ceil(C/8)][Ky][Kx][8c][8f]
	// (BlockWeights).
	NCHW8
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case NCHW:
		return "nchw"
	case NCHW8:
		return "nchw8"
	default:
		return fmt.Sprintf("layout(%d)", uint8(l))
	}
}

// Block is the channel-block factor of the NCHW8 layout — the width of
// the gemm micro-kernel's interleaved panels.
const Block = 8

// Blocks returns ceil(n/Block): how many channel blocks cover n channels.
func Blocks(n int) int { return (n + Block - 1) / Block }

// ToBlocked converts a [C][H][W] activation to the blocked
// [ceil(C/Block)][H][W][Block] layout (tail lanes zero-filled).
func ToBlocked(t *Tensor) *Tensor {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("tensor: ToBlocked needs rank-3 input, got %v", t.Dims))
	}
	out := New(Blocks(t.Dims[0]), t.Dims[1], t.Dims[2], Block)
	ToBlockedInto(out, t)
	return out
}

// ToBlockedInto converts src ([C][H][W]) into dst
// ([ceil(C/Block)][H][W][Block]), zero-filling tail lanes. dst's layout
// tag is set to NCHW8. It allocates nothing, so steady-state conversion
// at a network's ingest boundary can run entirely out of an arena.
func ToBlockedInto(dst, src *Tensor) {
	if src.Rank() != 3 || dst.Rank() != 4 {
		panic("tensor: ToBlockedInto needs rank-3 src and rank-4 dst")
	}
	c, h, w := src.Dims[0], src.Dims[1], src.Dims[2]
	if dst.Dims[0] != Blocks(c) || dst.Dims[1] != h || dst.Dims[2] != w || dst.Dims[3] != Block {
		panic("tensor: ToBlockedInto dst shape does not match src")
	}
	for ci := 0; ci < c; ci++ {
		cb, lane := ci/Block, ci%Block
		for y := 0; y < h; y++ {
			srow := src.Data[(ci*h+y)*w : (ci*h+y)*w+w]
			drow := dst.Data[((cb*h+y)*w)*Block+lane:]
			blockScatter(drow, srow)
		}
	}
	for ci := c; ci < Blocks(c)*Block; ci++ {
		cb, lane := ci/Block, ci%Block
		for y := 0; y < h; y++ {
			drow := dst.Data[((cb*h+y)*w)*Block+lane:]
			blockZero(drow, w)
		}
	}
	dst.Layout = NCHW8
}

// FromBlocked converts a blocked activation back to [c][H][W], dropping
// the zero tail lanes. c is the true channel count (the blocked shape
// only records ceil(c/Block)).
func FromBlocked(t *Tensor, c int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: FromBlocked needs rank-4 input, got %v", t.Dims))
	}
	out := New(c, t.Dims[1], t.Dims[2])
	FromBlockedInto(out, t)
	return out
}

// FromBlockedInto converts src ([ceil(C/Block)][H][W][Block]) into dst
// ([C][H][W]); the true channel count is taken from dst's shape. Like
// ToBlockedInto it allocates nothing.
func FromBlockedInto(dst, src *Tensor) {
	if dst.Rank() != 3 || src.Rank() != 4 {
		panic("tensor: FromBlockedInto needs rank-4 src and rank-3 dst")
	}
	c, h, w := dst.Dims[0], dst.Dims[1], dst.Dims[2]
	if src.Dims[0] != Blocks(c) || src.Dims[1] != h || src.Dims[2] != w || src.Dims[3] != Block {
		panic("tensor: FromBlockedInto src shape does not match dst")
	}
	for ci := 0; ci < c; ci++ {
		cb, lane := ci/Block, ci%Block
		for y := 0; y < h; y++ {
			srow := src.Data[((cb*h+y)*w)*Block+lane:]
			drow := dst.Data[(ci*h+y)*w : (ci*h+y)*w+w]
			blockGather(drow, srow)
		}
	}
	dst.Layout = NCHW
}

// BlockWeights converts convolution weights [F][C][Ky][Kx] to the blocked
// panel layout [ceil(F/Block)][ceil(C/Block)][Ky][Kx][Block c][Block f]:
// for fixed (fo, cb, ky) the Kx·Block×Block sub-block is exactly one
// contiguous k-interleaved micro-kernel panel (bp[Block·k+f], k running
// over (kx, c-lane)), matching kern.Dot8 against a contiguous
// blocked-input row. Tail positions (f >= F or c >= C) are zero.
func BlockWeights(w *Tensor) *Tensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: BlockWeights needs rank-4 input, got %v", w.Dims))
	}
	f, c, ky, kx := w.Dims[0], w.Dims[1], w.Dims[2], w.Dims[3]
	out := New(Blocks(f), Blocks(c), ky, kx, Block, Block)
	BlockWeightsInto(out, w)
	return out
}

// BlockWeightsInto is the allocation-free form of BlockWeights; dst must
// have the blocked rank-6 shape for src's geometry and is fully
// overwritten (tail positions zeroed).
func BlockWeightsInto(dst, src *Tensor) {
	if src.Rank() != 4 || dst.Rank() != 6 {
		panic("tensor: BlockWeightsInto needs rank-4 src and rank-6 dst")
	}
	f, c, ky, kx := src.Dims[0], src.Dims[1], src.Dims[2], src.Dims[3]
	if dst.Dims[0] != Blocks(f) || dst.Dims[1] != Blocks(c) || dst.Dims[2] != ky ||
		dst.Dims[3] != kx || dst.Dims[4] != Block || dst.Dims[5] != Block {
		panic("tensor: BlockWeightsInto dst shape does not match src")
	}
	dst.Zero()
	cbN := Blocks(c)
	for fi := 0; fi < f; fi++ {
		fo, fl := fi/Block, fi%Block
		for ci := 0; ci < c; ci++ {
			cb, cl := ci/Block, ci%Block
			for y := 0; y < ky; y++ {
				srow := src.Data[((fi*c+ci)*ky+y)*kx : ((fi*c+ci)*ky+y)*kx+kx]
				base := ((((fo*cbN+cb)*ky+y)*kx)*Block+cl)*Block + fl
				drow := dst.Data[base:]
				blockScatterW(drow, srow)
			}
		}
	}
	dst.Layout = NCHW8
}

// UnblockWeights inverts BlockWeights, recovering [f][c][Ky][Kx] weights
// from the blocked panel layout (tail lanes discarded).
func UnblockWeights(t *Tensor, f, c int) *Tensor {
	if t.Rank() != 6 {
		panic(fmt.Sprintf("tensor: UnblockWeights needs rank-6 input, got %v", t.Dims))
	}
	ky, kx := t.Dims[2], t.Dims[3]
	cbN := t.Dims[1]
	out := New(f, c, ky, kx)
	for fi := 0; fi < f; fi++ {
		fo, fl := fi/Block, fi%Block
		for ci := 0; ci < c; ci++ {
			cb, cl := ci/Block, ci%Block
			for y := 0; y < ky; y++ {
				for x := 0; x < kx; x++ {
					src := t.Data[((((fo*cbN+cb)*ky+y)*kx+x)*Block+cl)*Block+fl]
					out.Data[((fi*c+ci)*ky+y)*kx+x] = src
				}
			}
		}
	}
	return out
}

// blockScatter writes dst[Block·i] = src[i]: one channel's spatial row
// scattered into its lane of the blocked row.
func blockScatter(dst, src []float32) {
	for _, v := range src {
		if len(dst) < 1 {
			break
		}
		dst[0] = v
		if len(dst) >= Block {
			dst = dst[Block:]
		} else {
			dst = dst[:0]
		}
	}
}

// blockScatterW writes dst[Block·Block·i] = src[i]: one weight row
// scattered across the kx stride of the blocked panel layout.
func blockScatterW(dst, src []float32) {
	const step = Block * Block
	for _, v := range src {
		if len(dst) < 1 {
			break
		}
		dst[0] = v
		if len(dst) >= step {
			dst = dst[step:]
		} else {
			dst = dst[:0]
		}
	}
}

// blockGather reads dst[i] = src[Block·i]: the inverse of blockScatter.
func blockGather(dst, src []float32) {
	for i := range dst {
		if len(src) < 1 {
			break
		}
		dst[i] = src[0]
		if len(src) >= Block {
			src = src[Block:]
		} else {
			src = src[:0]
		}
	}
}

// blockZero clears n lane positions dst[0], dst[Block], ... — the
// zero-fill of a tail block's unused lanes.
func blockZero(dst []float32, n int) {
	for i := 0; i < n; i++ {
		if len(dst) < 1 {
			break
		}
		dst[0] = 0
		if len(dst) >= Block {
			dst = dst[Block:]
		} else {
			dst = dst[:0]
		}
	}
}
