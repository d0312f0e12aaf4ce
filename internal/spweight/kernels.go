package spweight

// Hot loop of the sparse-weight forward pass, in the repo's bounds-check-
// eliminated streaming-slice idiom (gated by scripts/bce_check.sh). Each
// surviving tap is one saxpy of an input row window into an output row —
// the per-element work of the dense path with every zero-weight term gone.
// The unit-stride saxpy is kern.Axpy; the per-tap driver that feeds these
// loops lives in forward.go.

// axpyRowStride computes dst[i] += v·src[i·stride].
func axpyRowStride(dst, src []float32, v float32, stride int) {
	for len(dst) >= 1 && len(src) >= 1 {
		dst[0] += v * src[0]
		dst = dst[1:]
		if uint(stride) <= uint(len(src)) {
			src = src[stride:]
		} else {
			src = src[:0]
		}
	}
}
