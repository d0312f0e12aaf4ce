//go:build !amd64

package kern

// hasAVX2 is false off amd64: every primitive runs its scalar body.
const hasAVX2 = false

// The assembly entry points exist only on amd64. These stand-ins keep the
// dispatch wrappers compiling; the constant false above removes every call.

func axpyAVX2(dst, src []float32, a float32) { axpy(dst, src, a) }

func axpyRunsAVX2(dst, src []float32, a float32, n, dstStride, srcStride int) {
	axpyRuns(dst, src, a, n, dstStride, srcStride)
}

func dot8AVX2(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) { return dot8(a, bp) }

func dot8x4AVX2(s *[4][8]float32, a0, a1, a2, a3, bp []float32) { dot8x4(s, a0, a1, a2, a3, bp) }

func dot8x4SegAVX2(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int) {
	dot8x4Seg(dst, stride, a0, a1, a2, a3, bp, seg)
}

func nonZerosAVX2(idx []int32, x []float32) int { return nonZeros(idx, x) }

func axpyBlockAVX2(dst, src, vals []float32, offs []int32, slots *blockSlots, k, limit int) {
	panic("kern: no held-block body off amd64")
}

func maxPoolAVX2(am []int32, band []float32, base, w, size int) {
	maxPool(am, band, base, w, size, size)
}

func epilogueAVX2(p []float32, b float32, add, relu bool) { epilogue(p, b, relu) }
