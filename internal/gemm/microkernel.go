package gemm

// Bounds-check-eliminated micro-kernels: the innermost loops of every dense
// GEMM path in this package, written so the Go compiler's prove pass can
// discharge every bounds check (verify with -gcflags=-d=ssa/check_bce;
// scripts/bce_check.sh gates the functions in this file in CI).
//
// Two idioms keep the loops clean:
//
//   - Streaming slices: instead of indexing a fixed slice with a loop
//     counter, the loop conditions bound len() of every operand and the
//     slices are re-sliced forward each iteration ("for len(ap) >= 4 { ...
//     ap = ap[4:] }"). The loads at constant offsets 0..3 are then provably
//     in bounds.
//   - Guard-break hints: when one slice drives the loop ("for k := range
//     x0") and others are indexed by the same counter, a never-taken
//     "if k >= len(x1) { break }" teaches prove the indexing is safe
//     without any per-element cost beyond one predictable compare.
//
// Every kernel accumulates each output element with a single accumulator
// walking k in strictly increasing order, so swapping a kernel for a wider
// or packed variant of itself is bit-transparent: results are identical to
// the scalar loop it replaces.

// microDot8 is the packed-panel micro-kernel: eight full-K dot products of
// one A row against one interleaved panel (bp[panelW*k+c] = B[k][j+c],
// packed.go). Exactly two slices advance per iteration — the single-stream
// property the panel layout exists to provide — feeding eight accumulator
// chains that stay in registers across the whole reduction, with the K loop
// unrolled 4x. Each sum is one accumulator walking k in increasing order, so
// the kernel is bit-identical to the scalar dot.
func microDot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	for len(a) >= 4 && len(bp) >= 32 {
		av := a[0]
		s0 += av * bp[0]
		s1 += av * bp[1]
		s2 += av * bp[2]
		s3 += av * bp[3]
		s4 += av * bp[4]
		s5 += av * bp[5]
		s6 += av * bp[6]
		s7 += av * bp[7]
		av = a[1]
		s0 += av * bp[8]
		s1 += av * bp[9]
		s2 += av * bp[10]
		s3 += av * bp[11]
		s4 += av * bp[12]
		s5 += av * bp[13]
		s6 += av * bp[14]
		s7 += av * bp[15]
		av = a[2]
		s0 += av * bp[16]
		s1 += av * bp[17]
		s2 += av * bp[18]
		s3 += av * bp[19]
		s4 += av * bp[20]
		s5 += av * bp[21]
		s6 += av * bp[22]
		s7 += av * bp[23]
		av = a[3]
		s0 += av * bp[24]
		s1 += av * bp[25]
		s2 += av * bp[26]
		s3 += av * bp[27]
		s4 += av * bp[28]
		s5 += av * bp[29]
		s6 += av * bp[30]
		s7 += av * bp[31]
		a = a[4:]
		bp = bp[32:]
	}
	for len(a) >= 1 && len(bp) >= 8 {
		av := a[0]
		s0 += av * bp[0]
		s1 += av * bp[1]
		s2 += av * bp[2]
		s3 += av * bp[3]
		s4 += av * bp[4]
		s5 += av * bp[5]
		s6 += av * bp[6]
		s7 += av * bp[7]
		a = a[1:]
		bp = bp[8:]
	}
	return
}

// MicroDot8 exposes the packed-panel micro-kernel to engines whose data
// layout manufactures panels without packing (the blocked NCHW8
// convolution reads bp directly out of its weight layout). The wrapper
// carries no indexing of its own, so the BCE gate on this file is
// unaffected.
func MicroDot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	return microDot8(a, bp)
}

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

// gatherStrip8 packs one panel column group from an operand walked ACROSS
// its storage orientation (a transposed B): eight source rows advance in
// lockstep, dst[8k+c] = rows[c][k].
func gatherStrip8(dst, r0, r1, r2, r3, r4, r5, r6, r7 []float32) {
	for len(dst) >= 8 && len(r0) >= 1 && len(r1) >= 1 && len(r2) >= 1 && len(r3) >= 1 &&
		len(r4) >= 1 && len(r5) >= 1 && len(r6) >= 1 && len(r7) >= 1 {
		v0, v1, v2, v3 := r0[0], r1[0], r2[0], r3[0]
		v4, v5, v6, v7 := r4[0], r5[0], r6[0], r7[0]
		dst[0] = v0
		dst[1] = v1
		dst[2] = v2
		dst[3] = v3
		dst[4] = v4
		dst[5] = v5
		dst[6] = v6
		dst[7] = v7
		dst = dst[8:]
		r0 = r0[1:]
		r1 = r1[1:]
		r2 = r2[1:]
		r3 = r3[1:]
		r4 = r4[1:]
		r5 = r5[1:]
		r6 = r6[1:]
		r7 = r7[1:]
	}
}
