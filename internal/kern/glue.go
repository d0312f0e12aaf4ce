package kern

// The glue primitives: the loops a convolution layer's epilogue and the
// max-pool run over activations, written in the same bounds-check-free
// idiom as kern.go (scripts/bce_check.sh gates this file). Activations are
// about half negative, so none of these loops branches on data: the ReLU
// select is an all-ones/zero mask built from the float's bits, and the pool
// compares unsigned order keys, which the compiler lowers to conditional
// moves and the AVX2 body to VPMAXUD.

import "math"

// Positive returns all ones when v > 0 and zero otherwise, for every float32
// including ±0, ±Inf, NaN and subnormals: v > 0 exactly when its bits less
// one, as an unsigned number, fall below +Inf's (0 wraps to the top;
// negatives and NaNs sit at or above +Inf's bits).
func Positive(v float32) uint32 {
	return uint32((int64(math.Float32bits(v)-1) - 0x7f800000) >> 63)
}

// Epilogue finishes one output plane of a convolution in one pass:
// p[j] += b, skipped when b == 0 so that a −0 output keeps its sign, then,
// with relu, p[j] = +0 wherever p[j] > 0 is false. These are the float
// operations of a bias pass followed by a ReLU pass, in that order, so the
// result is bit for bit theirs. The AVX2 body runs eight floats per VADDPS
// and VCMPPS/VANDPS select; the scalar body takes the last len(p) % 8.
func Epilogue(p []float32, b float32, relu bool) {
	if b == 0 && !relu {
		return
	}
	if hasAVX2 {
		n := len(p) &^ 7
		epilogueAVX2(p[:n], b, b != 0, relu)
		p = p[n:]
	}
	epilogue(p, b, relu)
}

// epilogue is Epilogue's scalar body.
func epilogue(p []float32, b float32, relu bool) {
	switch {
	case relu && b != 0:
		for j, v := range p {
			v += b
			p[j] = math.Float32frombits(math.Float32bits(v) & Positive(v))
		}
	case relu:
		for j, v := range p {
			p[j] = math.Float32frombits(math.Float32bits(v) & Positive(v))
		}
	case b != 0:
		for j := range p {
			p[j] += b
		}
	}
}

// MaxPool finds the argmax of len(am) consecutive pooling windows of one
// output row. Window ox has its top-left element at band[ox·stride] and its
// row ky at band[ky·w+ox·stride:][:size]; am[ox] receives the winner's flat
// input index, base plus its offset in band. The winner is that of a strict
// v > best over the window in row-major order, seeded with the window's
// first element: the first of equal maxima, ±0 equal, a NaN candidate never
// winning and a NaN leader never beaten. It panics when band cannot hold
// the windows.
//
// Non-overlapping windows of 2 and 4 (size == stride), every committed
// network's pools, run the AVX2 body eight input columns at a time: integer
// order keys, the window maximum by VPMAXUD, and the first row-major lane
// holding it by VPCMPEQD and a movemask. Other shapes, and a row's last
// windows short of eight columns, run the scalar body.
func MaxPool(am []int32, band []float32, base, w, size, stride int) {
	if hasAVX2 && size == stride && (size == 2 || size == 4) && w >= 0 {
		n := len(am) &^ (8/size - 1) // windows in whole 8-column groups
		if n > 0 && (size-1)*w+n*size <= len(band) {
			maxPoolAVX2(am[:n], band, base, w, size)
			am, band, base = am[n:], advance(band, n*size), base+n*size
		}
	}
	maxPool(am, band, base, w, size, stride)
}

// maxPool is MaxPool's scalar body: maxPoolRow over chunks of at most 64
// windows, whose running maxima live on the stack.
func maxPool(am []int32, band []float32, base, w, size, stride int) {
	var best [64]uint64
	for len(am) > 0 {
		n := min(len(am), len(best))
		maxPoolRow(best[:n], am[:n], band, base, w, size, stride)
		am, band, base = am[n:], advance(band, n*stride), base+n*stride
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

// maxPoolRow is MaxPool over len(best) ≤ 64 windows. The band is walked row
// by row with one running maximum per window, so the compare is an integer
// conditional move and the windows of a row proceed independently.
//
// A running maximum packs the order key over the complement of the index:
// one unsigned compare orders by key and, on equal keys, keeps the earlier
// element, since a window's candidates arrive in increasing index order.
// That is exactly the winner of a strict v > best over the window in
// row-major order.
func maxPoolRow(best []uint64, am []int32, band []float32, base, w, size, stride int) {
	if len(am) < len(best) {
		panic("kern: maxPoolRow bounds")
	}
	am = am[:len(best)]
	r, at := band, int32(base)
	for ox := range best {
		if len(r) == 0 {
			panic("kern: maxPoolRow band too short")
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
		panic("kern: maxPoolRow bounds")
	}
	lo := uint64(^uint32(at)) // index complement of the window's first element
	for ox := range best {
		if size > len(r) {
			panic("kern: maxPoolRow band too short")
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
