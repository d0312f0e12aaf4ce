package blockedconv

// Hot loop of the blocked forward pass, written in the repo's
// bounds-check-eliminated streaming-slice idiom (see internal/kern; this
// file is gated by scripts/bce_check.sh). The only compute kernel is
// kern.Dot8 — the blocked layout's whole point is that the micro-kernel's
// packed-panel operands exist in memory without a packing pass. The
// per-row driver that feeds this loop lives in forward.go.

import "spgcnn/internal/kern"

// accRow accumulates one output row of one feature block: for each output
// pixel the 8 feature lanes gain Dot8(in-window, panel). in advances by
// step (= Sx·8) per pixel; the window length is len(wp)/8 (= Fx·8).
func accRow(out, in, wp []float32, step int) {
	kw := len(wp) / 8
	for len(out) >= 8 && len(in) >= kw {
		s0, s1, s2, s3, s4, s5, s6, s7 := kern.Dot8(in[:kw], wp)
		out[0] += s0
		out[1] += s1
		out[2] += s2
		out[3] += s3
		out[4] += s4
		out[5] += s5
		out[6] += s6
		out[7] += s7
		out = out[8:]
		if uint(step) <= uint(len(in)) {
			in = in[step:]
		} else {
			in = in[:0]
		}
	}
}
