package spkernel

// The hot loop of the pointer-shifting pass, in the repo's bounds-check-
// eliminated streaming-slice idiom (gated by scripts/bce_check.sh): every
// stored EO non-zero runs it once per equation. The driver that slices its
// operands lives in spkernel.go.

// axpyRows computes dst += a·src over consecutive runs of n elements: run r
// starts at dst[r·dstStride] and src[r·srcStride], and the walk ends when
// either side has no full run left. With one side an HWC image window
// (stride = one image row) and the other a packed [ky][kx·c] block (stride
// = n) this is all Fy kernel rows of one non-zero — Eq. 3 with the window as
// dst, Eq. 4 with the block as dst.
//
// A run is consumed 8 elements at a time, then by a straight-line 4/2/1
// remainder instead of a counted loop: at the short runs of few-channel
// layers (15 on CIFAR conv0) the mispredicted exit of a 3-trip tail loop,
// not the arithmetic, was a third of the cost per non-zero. Kept out of
// line: inlined into the driver's loop nest the run loop's induction
// variable spills to the stack.
//
//go:noinline
func axpyRows(dst, src []float32, a float32, n, dstStride, srcStride int) {
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
		if uint(dstStride) > uint(len(dst)) || uint(srcStride) > uint(len(src)) {
			return
		}
		dst, src = dst[dstStride:], src[srcStride:]
	}
}
