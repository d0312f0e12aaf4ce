package unfoldgemm

// Hot loops of the implicit unfold that only this engine runs, written in
// the repo's bounds-check-eliminated streaming-slice idiom (see
// internal/kern; this file is gated by scripts/bce_check.sh). With the
// shared primitives they replace the materialized unfolded matrix U:
//
//   - copyTaps8 builds an FP panel: for 8 adjacent output pixels of one
//     row it copies the 8 contiguous input floats of every tap, producing
//     exactly the k-interleaved panel kern.Dot8 consumes. copyTaps4x2 does
//     the same for a panel that is two runs of 4 pixels in one row each
//     (every panel of a 4-pixel-wide output, two rows per panel).
//   - kern.Gather8 builds one output row of a BP-dW panel: 8 taps, each a
//     shifted image row, interleaved pixel by pixel. kern.Dot8x4Seg runs
//     four EO rows against one such panel of every image of a sub-batch,
//     one segment per image, with the 4×8 dW block held in registers.
//   - kern.Axpy scatters one non-zero error gradient's weight row into a
//     BP-EI panel (U_E restricted to 8 pixels).
//   - foldTaps8 folds an 8-pixel BP-EI panel into the (zero-bordered)
//     input gradient, walking taps in descending order so every element
//     still sums its pixels in ascending order; foldTaps4 folds the first
//     4 pixels of a 4- to 7-pixel panel the same way.
//
// The drivers that compute offsets and handle ragged or strided panels
// live in unfoldgemm.go.

// copyTaps8 writes dst[8t+c] = src[taps[t]+c] for every tap t and c < 8:
// src starts at the window origin of the panel's first pixel, and the
// panel's 8 pixels are adjacent (unit stride, one output row).
func copyTaps8(dst, src []float32, taps []int) {
	for _, o := range taps {
		if uint(o) > uint(len(src)) || len(dst) < 8 {
			return
		}
		s := src[o:]
		if len(s) < 8 {
			return
		}
		v0, v1, v2, v3 := s[0], s[1], s[2], s[3]
		v4, v5, v6, v7 := s[4], s[5], s[6], s[7]
		dst[0] = v0
		dst[1] = v1
		dst[2] = v2
		dst[3] = v3
		dst[4] = v4
		dst[5] = v5
		dst[6] = v6
		dst[7] = v7
		dst = dst[8:]
	}
}

// copyTaps4x2 is copyTaps8 for a panel whose 8 pixels are two runs of 4
// adjacent ones, each within one output row (unit stride): s0 and s1 start
// at the window origins of pixels 0 and 4, and it writes dst[8t+c] =
// s0[taps[t]+c] and dst[8t+4+c] = s1[taps[t]+c] for c < 4. An OutX = 4
// layer's panels all take this path.
func copyTaps4x2(dst, s0, s1 []float32, taps []int) {
	for _, o := range taps {
		if uint(o) > uint(len(s0)) || uint(o) > uint(len(s1)) || len(dst) < 8 {
			return
		}
		a, b := s0[o:], s1[o:]
		if len(a) < 4 || len(b) < 4 {
			return
		}
		v0, v1, v2, v3 := a[0], a[1], a[2], a[3]
		v4, v5, v6, v7 := b[0], b[1], b[2], b[3]
		dst[0] = v0
		dst[1] = v1
		dst[2] = v2
		dst[3] = v3
		dst[4] = v4
		dst[5] = v5
		dst[6] = v6
		dst[7] = v7
		dst = dst[8:]
	}
}

// foldTaps8 adds r0..r7 — the U_E rows of 8 adjacent output pixels — into
// dst: dst[taps[t]+c] += rc[t]. dst starts at the window origin of the
// first pixel. Tap offsets strictly increase with t, so walking t downward
// meets the pixels sharing one destination element in ascending order:
// each element sums its pixels exactly as col2im's pixel-major loop does.
func foldTaps8(dst []float32, taps []int, r0, r1, r2, r3, r4, r5, r6, r7 []float32) {
	for t := len(taps) - 1; t >= 0; t-- {
		if t >= len(r0) || t >= len(r1) || t >= len(r2) || t >= len(r3) ||
			t >= len(r4) || t >= len(r5) || t >= len(r6) || t >= len(r7) {
			continue
		}
		o := taps[t]
		if uint(o) > uint(len(dst)) {
			continue
		}
		d := dst[o:]
		if len(d) < 8 {
			continue
		}
		d[0] += r0[t]
		d[1] += r1[t]
		d[2] += r2[t]
		d[3] += r3[t]
		d[4] += r4[t]
		d[5] += r5[t]
		d[6] += r6[t]
		d[7] += r7[t]
	}
}

// foldTaps4 is foldTaps8 for 4 adjacent output pixels, in the same
// descending tap order: dst[taps[t]+c] += rc[t] for c < 4. A panel of 5 to
// 7 pixels folds its first 4 here and the rest pixel by pixel after, so
// every element still sums its pixels in ascending order.
func foldTaps4(dst []float32, taps []int, r0, r1, r2, r3 []float32) {
	for t := len(taps) - 1; t >= 0; t-- {
		if t >= len(r0) || t >= len(r1) || t >= len(r2) || t >= len(r3) {
			continue
		}
		o := taps[t]
		if uint(o) > uint(len(dst)) {
			continue
		}
		d := dst[o:]
		if len(d) < 4 {
			continue
		}
		d[0] += r0[t]
		d[1] += r1[t]
		d[2] += r2[t]
		d[3] += r3[t]
	}
}
