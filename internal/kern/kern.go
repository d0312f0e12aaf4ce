// Package kern is the inner-loop layer: the loops that more than one
// convolution engine runs. The engines keep only their drivers — offsets,
// panel layouts, ragged edges — and call these for the per-element work.
//
// Each exported primitive is a dispatch wrapper over two bodies: the scalar
// Go body in this file and, on amd64 CPUs with AVX2 (checked once, by CPUID
// and XGETBV in kern_amd64.s), an assembly body in kern_amd64.s. The scalar
// bodies are the build off amd64, the fallback without AVX2, and the
// oracle the assembly is tested against.
//
// Invariant: every primitive keeps one accumulator per output element and
// walks its reduction in increasing index order, so replacing a loop by a
// wider body of the same primitive is bit-transparent — results are
// identical to the one-line scalar loop each function documents, including
// ±0, ±Inf and subnormals, and NaN where the loop gives NaN (kern_test.go
// pins this with math.Float32bits). The assembly keeps it by running every
// lane's s += a·b as VMULPS then VADDPS, never a fused multiply-add: a
// fused body would round once where the scalar loop rounds twice.
//
// The loops are written in the bounds-check-eliminated streaming-slice
// idiom (scripts/bce_check.sh gates this file):
//
//   - Streaming slices: instead of indexing a fixed slice with a loop
//     counter, the loop conditions bound len() of every operand and the
//     slices are re-sliced forward each iteration ("for len(d) >= 8 { ...
//     d = d[8:] }"). Loads at constant offsets are then provably in bounds.
//   - One shared length: when several slices are walked by one counter,
//     they are cut to a common length first so the prove pass sees every
//     index in range.
package kern

// Axpy computes dst[i] += a·src[i] for i < min(len(dst), len(src)).
func Axpy(dst, src []float32, a float32) {
	if hasAVX2 {
		axpyAVX2(dst, src, a)
		return
	}
	axpy(dst, src, a)
}

// axpy is Axpy's scalar body. It consumes 8 elements at a time, then a
// straight-line 4/2/1 remainder instead of a counted loop: at the short
// rows of few-channel layers the mispredicted exit of a 3-trip tail loop
// costs more than the arithmetic.
func axpy(dst, src []float32, a float32) {
	for len(dst) >= 8 && len(src) >= 8 {
		dst[0] += a * src[0]
		dst[1] += a * src[1]
		dst[2] += a * src[2]
		dst[3] += a * src[3]
		dst[4] += a * src[4]
		dst[5] += a * src[5]
		dst[6] += a * src[6]
		dst[7] += a * src[7]
		dst, src = dst[8:], src[8:]
	}
	if len(dst) >= 4 && len(src) >= 4 {
		dst[0] += a * src[0]
		dst[1] += a * src[1]
		dst[2] += a * src[2]
		dst[3] += a * src[3]
		dst, src = dst[4:], src[4:]
	}
	if len(dst) >= 2 && len(src) >= 2 {
		dst[0] += a * src[0]
		dst[1] += a * src[1]
		dst, src = dst[2:], src[2:]
	}
	if len(dst) >= 1 && len(src) >= 1 {
		dst[0] += a * src[0]
	}
}

// AxpyRuns computes dst += a·src over consecutive runs of n elements: run r
// starts at dst[r·dstStride] and src[r·srcStride], and the walk ends when
// either side has no full run left. A stride ≤ 0 on either side means one
// run. spkernel's pointer-shifting BP runs it once per stored EO non-zero,
// with one side an HWC image window (stride = one image row) and the other
// a packed [ky][kx·c] block (stride = n).
//
// The assembly body walks every run in one call, with the n%8 tail mask
// built once: runs are short (15 floats on CIFAR conv0), and cannot afford
// a call each.
func AxpyRuns(dst, src []float32, a float32, n, dstStride, srcStride int) {
	if hasAVX2 {
		axpyRunsAVX2(dst, src, a, n, dstStride, srcStride)
		return
	}
	axpyRuns(dst, src, a, n, dstStride, srcStride)
}

// axpyRuns is AxpyRuns' scalar body. The run body is axpy's, written out
// here rather than called: a call per run, or a single walk shared with
// axpy, measured slower at 15-float runs. Kept out of line: inlined into
// the driver's loop nest the run loop's induction variable spills to the
// stack.
//
//go:noinline
func axpyRuns(dst, src []float32, a float32, n, dstStride, srcStride int) {
	for n > 0 && len(dst) >= n && len(src) >= n {
		d, s := dst[:n], src[:n]
		for len(d) >= 8 && len(s) >= 8 {
			d[0] += a * s[0]
			d[1] += a * s[1]
			d[2] += a * s[2]
			d[3] += a * s[3]
			d[4] += a * s[4]
			d[5] += a * s[5]
			d[6] += a * s[6]
			d[7] += a * s[7]
			d, s = d[8:], s[8:]
		}
		if len(d) >= 4 && len(s) >= 4 {
			d[0] += a * s[0]
			d[1] += a * s[1]
			d[2] += a * s[2]
			d[3] += a * s[3]
			d, s = d[4:], s[4:]
		}
		if len(d) >= 2 && len(s) >= 2 {
			d[0] += a * s[0]
			d[1] += a * s[1]
			d, s = d[2:], s[2:]
		}
		if len(d) >= 1 && len(s) >= 1 {
			d[0] += a * s[0]
		}
		if dstStride <= 0 || srcStride <= 0 ||
			uint(dstStride) > uint(len(dst)) || uint(srcStride) > uint(len(src)) {
			return
		}
		dst, src = dst[dstStride:], src[srcStride:]
	}
}

// Dot8 is the packed-panel micro-kernel: eight dot products of a against
// one k-interleaved panel, s_c = Σ_k a[k]·bp[8k+c] over
// k < min(len(a), len(bp)/8), each summed in increasing k.
func Dot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	if hasAVX2 {
		return dot8AVX2(a, bp)
	}
	return dot8(a, bp)
}

// Dot8x4 is the register-blocked Dot8: four rows against one panel,
// s[r] = Dot8(ar[:K], bp) with one K = min(len(a0), len(a1), len(a2),
// len(a3), len(bp)/8). Each panel load feeds four independent accumulator
// chains, so the assembly body overlaps four adds where Dot8's single
// chain waits out each add's latency. Callers block their rows by four and
// run the rest through Dot8.
func Dot8x4(s *[4][8]float32, a0, a1, a2, a3, bp []float32) {
	if hasAVX2 {
		dot8x4AVX2(s, a0, a1, a2, a3, bp)
		return
	}
	dot8x4(s, a0, a1, a2, a3, bp)
}

// dot8x4 is Dot8x4's scalar body: four dot8 calls, since 32 scalar
// accumulators would spill.
func dot8x4(s *[4][8]float32, a0, a1, a2, a3, bp []float32) {
	k := min(len(a0), len(a1), len(a2), len(a3), len(bp)/8)
	r := &s[0]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a0[:k], bp)
	r = &s[1]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a1[:k], bp)
	r = &s[2]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a2[:k], bp)
	r = &s[3]
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = dot8(a3[:k], bp)
}

// dot8 is Dot8's scalar body. Exactly two slices advance per iteration —
// the single-stream property the panel layout exists to provide — feeding
// eight accumulator chains that stay in registers across the whole
// reduction, with the k loop unrolled 4x.
func dot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
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

// Gather8 interleaves eight rows into one panel: dst[8k+c] = rc[k] for
// k < len(dst)/8. It writes nothing unless every row holds len(dst)/8
// values. The rows are cut to that one length first so a single counter
// indexes all eight without bounds checks or eight advancing slice headers.
func Gather8(dst, r0, r1, r2, r3, r4, r5, r6, r7 []float32) {
	n := len(dst) / 8
	if len(r0) < n || len(r1) < n || len(r2) < n || len(r3) < n ||
		len(r4) < n || len(r5) < n || len(r6) < n || len(r7) < n {
		return
	}
	r0, r1, r2, r3, r4, r5, r6, r7 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n], r6[:n], r7[:n]
	for k, v0 := range r0 {
		if len(dst) < 8 {
			return
		}
		dst[0] = v0
		dst[1] = r1[k]
		dst[2] = r2[k]
		dst[3] = r3[k]
		dst[4] = r4[k]
		dst[5] = r5[k]
		dst[6] = r6[k]
		dst[7] = r7[k]
		dst = dst[8:]
	}
}
