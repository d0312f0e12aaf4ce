package gemm

// Bounds-check-eliminated loops only this package runs: the pack-free 4x4
// tile and the panel copy. The packed path's dot and transpose gather are
// kern.Dot8 and kern.Gather8. scripts/bce_check.sh gates this file in CI.
//
// Besides internal/kern's streaming slices, panelTile4x4 uses a guard-break
// hint: when one slice drives the loop ("for k := range x0") and others are
// indexed by the same counter, a never-taken "if k >= len(x1) { break }"
// teaches prove the indexing is safe at the cost of one predictable compare.
//
// Every kernel accumulates each output element with a single accumulator
// walking k in strictly increasing order, so swapping a kernel for a wider
// or packed variant of itself is bit-transparent: results are identical to
// the scalar loop it replaces.

// panelTile4x4 computes a 4x4 tile of C += A-rows · B directly from the
// unpacked operands (the pack-free blocked path for cache-resident sizes):
// x0..x3 are the four A rows already sliced to the K block, bp points at
// B's [klo][j] element with the row stride given, and c0..c3 are C-row
// windows at column j. Per k the four B values are contiguous, so only the
// A walk pays the strided access the packed path removes.
func panelTile4x4(c0, c1, c2, c3, x0, x1, x2, x3, bp []float32, stride int) {
	var s00, s01, s02, s03 float32
	var s10, s11, s12, s13 float32
	var s20, s21, s22, s23 float32
	var s30, s31, s32, s33 float32
	for k := 0; k < len(x0); k++ {
		if k >= len(x1) || k >= len(x2) || k >= len(x3) || len(bp) < 4 {
			break
		}
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		v0, v1, v2, v3 := x0[k], x1[k], x2[k], x3[k]
		s00 += v0 * b0
		s01 += v0 * b1
		s02 += v0 * b2
		s03 += v0 * b3
		s10 += v1 * b0
		s11 += v1 * b1
		s12 += v1 * b2
		s13 += v1 * b3
		s20 += v2 * b0
		s21 += v2 * b1
		s22 += v2 * b2
		s23 += v2 * b3
		s30 += v3 * b0
		s31 += v3 * b1
		s32 += v3 * b2
		s33 += v3 * b3
		// uint compare: proves 0 <= stride <= len(bp) for the re-slice.
		if uint(stride) <= uint(len(bp)) {
			bp = bp[stride:]
		} else {
			bp = bp[:0]
		}
	}
	if len(c0) < 4 || len(c1) < 4 || len(c2) < 4 || len(c3) < 4 {
		return
	}
	c0[0] += s00
	c0[1] += s01
	c0[2] += s02
	c0[3] += s03
	c1[0] += s10
	c1[1] += s11
	c1[2] += s12
	c1[3] += s13
	c2[0] += s20
	c2[1] += s21
	c2[2] += s22
	c2[3] += s23
	c3[0] += s30
	c3[1] += s31
	c3[2] += s32
	c3[3] += s33
}

// copyStrip8 packs one panel column group from an operand walked in its
// storage orientation: per source row (advanced by stride) it copies 8
// contiguous values to 8 contiguous packed slots — a pure streaming copy.
func copyStrip8(dst, src []float32, stride int) {
	for len(dst) >= 8 && len(src) >= 8 {
		v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
		v4, v5, v6, v7 := src[4], src[5], src[6], src[7]
		dst[0] = v0
		dst[1] = v1
		dst[2] = v2
		dst[3] = v3
		dst[4] = v4
		dst[5] = v5
		dst[6] = v6
		dst[7] = v7
		dst = dst[8:]
		if uint(stride) <= uint(len(src)) {
			src = src[stride:]
		} else {
			src = src[:0]
		}
	}
}
