package stencil

// Register-blocked tap kernels for unit-stride convolutions with 1- or
// 2-row register tiles (every unit-stride tile ChoosePlan picks): the
// faithful analogue of the paper's Fig. 7 generated basic block. For each
// block of 4 output columns × the tile's rows, the partial sums stay in
// scalar locals across the entire reduction — the only memory traffic
// inside the tap loop is the streaming input (whose loads are shared by
// the tile's rows) and the weight rows.

// tapOp is one input row's contribution to a 2-row register tile: the
// input row and the two Fx-long weight rows (a shared all-zero row where a
// tile edge row receives no contribution from this input row). The op list
// for one (feature, row-block) covers every (channel, input-row) pair, so
// the column kernel below keeps its accumulators register-resident across
// the ENTIRE Nc·(ry+Fy−1)·Fx reduction — matching the reduction depth that
// makes a GEMM micro-kernel efficient, but on the un-unfolded input.
type tapOp struct {
	src    []float32
	w0, w1 []float32
}

// tapColumn2 accumulates a 2-row × n-column strip over the full op list,
// 4 columns at a time with 8 register-resident partial sums.
func tapColumn2(d0, d1 []float32, ops []tapOp, fx, off, n int) {
	d0 = d0[:n]
	d1 = d1[:n]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		s10, s11, s12, s13 := d1[x], d1[x+1], d1[x+2], d1[x+3]
		for o := range ops {
			op := &ops[o]
			sv := op.src[off+x : off+x+fx+3]
			w0 := op.w0[:fx]
			w1 := op.w1[:fx]
			for kx := 0; kx < fx; kx++ {
				v0, v1, v2, v3 := sv[kx], sv[kx+1], sv[kx+2], sv[kx+3]
				w0v, w1v := w0[kx], w1[kx]
				s00 += w0v * v0
				s01 += w0v * v1
				s02 += w0v * v2
				s03 += w0v * v3
				s10 += w1v * v0
				s11 += w1v * v1
				s12 += w1v * v2
				s13 += w1v * v3
			}
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
		d1[x], d1[x+1], d1[x+2], d1[x+3] = s10, s11, s12, s13
	}
	for ; x < n; x++ {
		sa, sb := d0[x], d1[x]
		for o := range ops {
			op := &ops[o]
			for kx := 0; kx < fx; kx++ {
				v := op.src[off+x+kx]
				sa += op.w0[kx] * v
				sb += op.w1[kx] * v
			}
		}
		d0[x], d1[x] = sa, sb
	}
}

// tapColumn1 is the single-row variant (used when the row block is 1 tall:
// last block of an odd-height output, or ry = 1 plans).
func tapColumn1(d0 []float32, ops []tapOp, fx, off, n int) {
	d0 = d0[:n]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		for o := range ops {
			op := &ops[o]
			sv := op.src[off+x : off+x+fx+3]
			w0 := op.w0[:fx]
			for kx := 0; kx < fx; kx++ {
				wv := w0[kx]
				s00 += wv * sv[kx]
				s01 += wv * sv[kx+1]
				s02 += wv * sv[kx+2]
				s03 += wv * sv[kx+3]
			}
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
	}
	for ; x < n; x++ {
		s := d0[x]
		for o := range ops {
			op := &ops[o]
			for kx := 0; kx < fx; kx++ {
				s += op.w0[kx] * op.src[off+x+kx]
			}
		}
		d0[x] = s
	}
}
