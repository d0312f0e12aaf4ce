package stencil

// The Stencil-Kernel's one basic block: the scalar-Go analogue of the
// paper's Fig. 7 generated code, run by every spec. A register tile of 4
// output columns × up to 2 output rows keeps its partial sums in locals
// across the whole reduction while the input rows feeding it stream
// through: each 4-float input load feeds up to 8 multiply-accumulates.
//
// Every output receives its taps in (c, ky, kx) order from +0 — the ops
// walk the group's channels and, within a channel, the input rows in
// ascending order, and each row's taps ascend in kx — so the result is
// bit-identical to conv.ForwardRef for finite inputs. (Staged padding
// contributes w·0 = ±0 products, which leave a sum that started at +0
// unchanged.)
//
// This file is on scripts/bce_check.sh's protected list: every slice
// access is preceded by a guard the prove pass learns the bounds from, so
// the loops compile with zero bounds checks — keep it clean.

// rowOp is one input row's contribution to a block of output rows: src is
// the row's offset in the staged input relative to the block's first input
// row of the group's first channel, and w0/w1 are the offsets, within the
// feature's weights, of the kernel rows feeding block rows 0 and 1 (−1
// where the input row feeds that block row no tap).
type rowOp struct{ src, w0, w1 int }

// errRange is the guards' panic: a caller broke the tables' invariants.
const errRange = "stencil: body operand out of range"

// forwardRows computes output row o0 and, when o1 is non-nil, row o1 of one
// feature. in starts at the block's first input row of the group's first
// channel, wf holds the feature's weights, ops lists the input rows feeding
// the block in (c, iy) order, and taps[kx] is tap kx's offset within a
// staged row. Columns are visited in cache tiles of tileX; a block that
// would run past the row's end shifts left and recomputes a few columns
// (to identical values), so every block is 4 wide when the row is.
func forwardRows(o0, o1, in, wf []float32, ops []rowOp, taps []int, tileX int) {
	ox := len(o0)
	if tileX < 1 {
		panic(errRange)
	}
	for xt := 0; xt < ox; xt += tileX {
		end := min(xt+tileX, ox)
		for x := xt; x < end; x += 4 {
			xs := max(min(x, ox-4), 0)
			if uint(xs) > uint(len(in)) || uint(xs) > uint(ox) {
				panic(errRange)
			}
			s00, s01, s02, s03, s10, s11, s12, s13 := block(in[xs:], wf, ops, taps)
			store4(o0[xs:], s00, s01, s02, s03)
			if o1 != nil {
				if uint(xs) > uint(len(o1)) {
					panic(errRange)
				}
				store4(o1[xs:], s10, s11, s12, s13)
			}
		}
	}
}

// block reduces every op into one 4-column × 2-row register tile whose
// first column reads in[0] at tap offset 0, returning row 0's sums then
// row 1's. Column j reads through the lane view in[j:n+j], all four of
// length n, so one guard per tap against len(in0) proves all four loads
// (and the loads share one base register).
func block(in, wf []float32, ops []rowOp, taps []int) (s00, s01, s02, s03, s10, s11, s12, s13 float32) {
	n := len(in) - 3
	if n < 1 {
		panic(errRange)
	}
	in0, in1, in2, in3 := in[:n], in[1:n+1], in[2:n+2], in[3:n+3]
	fx := len(taps)
	for _, op := range ops {
		switch {
		case op.w1 < 0: // feeds block row 0 only
			w0 := weightRow(wf, op.w0, fx)
			for kx, o := range taps {
				i := op.src + o
				if uint(i) >= uint(len(in0)) {
					panic(errRange)
				}
				a := w0[kx]
				v0, v1, v2, v3 := in0[i], in1[i], in2[i], in3[i]
				s00 += a * v0
				s01 += a * v1
				s02 += a * v2
				s03 += a * v3
			}
		case op.w0 < 0: // feeds block row 1 only
			w1 := weightRow(wf, op.w1, fx)
			for kx, o := range taps {
				i := op.src + o
				if uint(i) >= uint(len(in0)) {
					panic(errRange)
				}
				b := w1[kx]
				v0, v1, v2, v3 := in0[i], in1[i], in2[i], in3[i]
				s10 += b * v0
				s11 += b * v1
				s12 += b * v2
				s13 += b * v3
			}
		default:
			w0, w1 := weightRow(wf, op.w0, fx), weightRow(wf, op.w1, fx)
			for kx, o := range taps {
				i := op.src + o
				if uint(i) >= uint(len(in0)) {
					panic(errRange)
				}
				v0, v1, v2, v3 := in0[i], in1[i], in2[i], in3[i]
				a, b := w0[kx], w1[kx]
				s00 += a * v0
				s01 += a * v1
				s02 += a * v2
				s03 += a * v3
				s10 += b * v0
				s11 += b * v1
				s12 += b * v2
				s13 += b * v3
			}
		}
	}
	return
}

// weightRow returns the fx weights at wf[off:].
func weightRow(wf []float32, off, fx int) []float32 {
	if uint(off) > uint(len(wf)) {
		panic(errRange)
	}
	w := wf[off:]
	if fx < 0 || len(w) < fx {
		panic(errRange)
	}
	return w[:fx]
}

// store4 writes the block's sums to d, or the first len(d) of them when
// the output row is narrower than 4.
func store4(d []float32, s0, s1, s2, s3 float32) {
	if len(d) >= 4 {
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		return
	}
	t := [4]float32{s0, s1, s2, s3}
	copy(d, t[:])
}
