package nn

// The element loops of the glue layers, written so the prove pass drops every
// bounds check: length guards up front, range loops, windows streamed by
// re-slicing (gated by scripts/bce_check.sh). ReLU's and max-pool's compares
// run on activations that are about half negative, so a branch on each
// element mispredicts often enough to cost more than streaming the batch
// through memory. Neither loop branches on data: ReLU selects with an
// all-ones/zero mask built from the float's bits, and the pool compares
// unsigned order keys, which the compiler lowers to conditional moves. The
// drivers that slice the batch (and the pool's argmax scatter, whose index is
// data) live in activations.go and pool.go.

import "math"

// positive returns all ones when v > 0 and zero otherwise, for every float32
// including ±0, ±Inf, NaN and subnormals: v > 0 exactly when its bits less
// one, as an unsigned number, fall below +Inf's (0 wraps to the top;
// negatives and NaNs sit at or above +Inf's bits).
func positive(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// reluRow writes dst[j] = src[j] where src[j] > 0 and +0 elsewhere.
func reluRow(dst, src []float32) {
	if len(dst) < len(src) {
		panic("nn: reluRow bounds")
	}
	for j, v := range src {
		dst[j] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
}

// reluGradRow writes dst[j] = g[j] where x[j] > 0 and +0 elsewhere: the
// forward's select, rebuilt from its input.
func reluGradRow(dst, g, x []float32) {
	if len(g) < len(dst) || len(x) < len(dst) {
		panic("nn: reluGradRow bounds")
	}
	for j := range dst {
		dst[j] = math.Float32frombits(math.Float32bits(g[j]) & positive(x[j]))
	}
}

// orderKey maps v to a uint32 whose unsigned order is the float order, with
// -0 and +0 on one key and every NaN below -Inf, so a NaN candidate never
// compares greater than anything.
func orderKey(v float32) uint32 {
	b := math.Float32bits(v)
	s := uint32(int32(b) >> 31) // all ones for a set sign bit
	m := b &^ (1 << 31)
	// ±m about the key of ±0; a positive NaN's magnitude wraps it below the
	// key of -Inf (0x00ffffff), a negative NaN's lands just under it.
	return 0x807fffff + (m ^ s) - s
}

// leadKey is orderKey for a window's first element, which the strict compare
// can only displace: a NaN there takes the top key, so nothing beats it.
func leadKey(v float32) uint32 {
	m := math.Float32bits(v) &^ (1 << 31)
	return orderKey(v) | uint32(int32(0x7f800000-m)>>31)
}

// maxPoolRow finds the argmax of len(best) consecutive pooling windows of
// one output row. Window ox has its top-left element at band[ox·stride] and
// its row ky at band[ky·w+ox·stride:][:size]; am[ox] receives the winner's
// flat input index, base plus its offset in band. The band is walked row by
// row with one running maximum per window, so the compare is an integer
// conditional move and the windows of a row proceed independently.
//
// A running maximum packs the order key over the complement of the index:
// one unsigned compare orders by key and, on equal keys, keeps the earlier
// element, since a window's candidates arrive in increasing index order.
// That is exactly the winner of a strict v > best over the window in
// row-major order.
func maxPoolRow(best []uint64, am []int32, band []float32, base, w, size, stride int) {
	if len(am) < len(best) {
		panic("nn: maxPoolRow bounds")
	}
	am = am[:len(best)]
	r, at := band, int32(base)
	for ox := range best {
		if len(r) == 0 {
			panic("nn: maxPoolRow band too short")
		}
		best[ox] = uint64(leadKey(r[0]))<<32 | uint64(^uint32(at))
		at += int32(stride)
		r = advance(r, stride)
	}
	for ky := 0; ky < size; ky++ {
		poolBandRow(best, advance(band, ky*w), int32(base+ky*w), size, stride)
	}
	for ox, m := range best {
		am[ox] = int32(^uint32(m))
	}
}

// poolBandRow folds one band row into the running maxima: window ox reads
// r[ox·stride:][:size], whose first element has flat index at + ox·stride.
func poolBandRow(best []uint64, r []float32, at int32, size, stride int) {
	if size < 1 || stride < 1 {
		panic("nn: maxPoolRow bounds")
	}
	lo := uint64(^uint32(at)) // index complement of the window's first element
	for ox := range best {
		if size > len(r) {
			panic("nn: maxPoolRow band too short")
		}
		m := best[ox]
		for kx, v := range r[:size] {
			if c := uint64(orderKey(v))<<32 | (lo - uint64(kx)); c > m {
				m = c
			}
		}
		best[ox] = m
		lo -= uint64(stride)
		r = advance(r, stride)
	}
}

// advance drops the first n elements of s, or all of them if s is shorter.
func advance(s []float32, n int) []float32 {
	if uint(n) > uint(len(s)) {
		return s[:0]
	}
	return s[n:]
}
