package gemm

// Bounds-check-eliminated loop only this package runs: the panel copy. The
// kernel's dot and transpose gather are kern.Dot8x4/kern.Dot8 and
// kern.Gather8. scripts/bce_check.sh gates this file in CI.

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
