package kern

import (
	"fmt"
	"math"
	"testing"
	"time"

	"spgcnn/internal/rng"
)

// specials are the values every primitive must treat exactly as the scalar
// loop does: signed zeros, infinities, a NaN, and subnormals of both signs.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), // largest subnormal
}

// values fills n floats with N(0,1) draws, every fifth (on average) one
// replaced by a special value.
func values(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
		if r.Intn(5) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
	return v
}

// scalars are the multipliers Axpy and AxpyRuns are driven with.
func scalars(r *rng.RNG) []float32 {
	return append([]float32{float32(r.NormFloat64()), 1, -2.5}, specials...)
}

// sameBits reports the first index where got and want differ by bit
// pattern, or -1. Any two NaNs match: when both addends of a sum are NaN,
// x86 returns the payload of whichever operand the register allocator put
// first, so a NaN's sign and payload are not a property of the loop (Go
// leaves them unspecified). Every other result — ±0, ±Inf, subnormals —
// must agree bit for bit.
func sameBits(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i, g := range got {
		w := want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

func TestAxpyMatchesScalarLoop(t *testing.T) {
	r := rng.New(0xA1)
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			// dst and src start at independent misalignments; the extra
			// lengths make one side the shorter, and the floats past
			// min(len) must stay untouched.
			for _, extra := range [][2]int{{0, 0}, {3, 0}, {0, 5}} {
				src := values(r, off+n+extra[1]+4)[off:]
				src = src[:n+extra[1]]
				for _, a := range scalars(r) {
					buf := values(r, off+n+extra[0]+4)
					got := append([]float32(nil), buf...)
					want := append([]float32(nil), buf...)
					Axpy(got[off:off+n+extra[0]], src, a)
					wd := want[off : off+n+extra[0]]
					for i := range min(len(wd), len(src)) {
						wd[i] += a * src[i]
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("n=%d off=%d extra=%v a=%v: [%d] = %v, want %v", n, off, extra, a, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAxpyRunsMatchesScalarLoop(t *testing.T) {
	r := rng.New(0xA2)
	for n := 0; n <= 20; n++ {
		for _, strides := range [][2]int{{n + 1, n}, {n, n + 7}, {2*n + 3, n + 1}, {1, 2}, {n + 5, 3}} {
			ds, ss := max(strides[0], 1), max(strides[1], 1)
			for off := 0; off < 8; off += 3 {
				// Room for three runs plus a partial fourth on each side.
				dlen, slen := 3*ds+n+n/2, 3*ss+n+n/3
				src := values(r, off+slen)[off:]
				for _, a := range scalars(r) {
					buf := values(r, off+dlen+2)
					got := append([]float32(nil), buf...)
					want := append([]float32(nil), buf...)
					AxpyRuns(got[off:off+dlen], src, a, n, ds, ss)
					wd := want[off : off+dlen]
					for run := 0; n > 0 && run*ds+n <= len(wd) && run*ss+n <= len(src); run++ {
						for i := 0; i < n; i++ {
							wd[run*ds+i] += a * src[run*ss+i]
						}
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("n=%d strides=%d,%d off=%d a=%v: [%d] = %v, want %v", n, ds, ss, off, a, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAxpyRuns(t *testing.T) {
	// Three runs of n elements, dst rows 7 apart and src rows packed: every
	// run element accumulates, everything between the dst runs is untouched.
	for n := 0; n <= 7; n++ {
		dst := make([]float32, 2*7+n)
		src := make([]float32, 3*n)
		for i := range dst {
			dst[i] = float32(i)
		}
		for i := range src {
			src[i] = float32(i * i)
		}
		AxpyRuns(dst, src, 2, n, 7, n)
		for i := range dst {
			want := float32(i)
			if r, x := i/7, i%7; x < n {
				want += 2 * float32((r*n+x)*(r*n+x))
			}
			if dst[i] != want {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
	}
}

func TestDot8MatchesScalarLoop(t *testing.T) {
	r := rng.New(0xA3)
	for _, k := range []int{0, 1, 3, 4, 75, 576, 1153} {
		for off := 0; off < 8; off++ {
			// Panels with a partial trailing row and a longer a: the
			// reduction covers k < min(len(a), len(bp)/8).
			for _, extra := range [][2]int{{0, 0}, {2, 0}, {0, 5}} {
				a := values(r, off+k+extra[0])[off:]
				bp := values(r, off+8*k+extra[1])[off:]
				var got [8]float32
				got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = Dot8(a, bp)
				var want [8]float32
				for c := range want {
					for i := 0; i < min(len(a), len(bp)/8); i++ {
						want[c] += a[i] * bp[8*i+c]
					}
				}
				if i := sameBits(got[:], want[:]); i >= 0 {
					t.Fatalf("K=%d off=%d extra=%v: s%d = %v, want %v", k, off, extra, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGather8MatchesScalarLoop(t *testing.T) {
	r := rng.New(0xA4)
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			var rows [8][]float32
			for c := range rows {
				rows[c] = values(r, off+n+c%3)[off:]
			}
			// len(dst) need not be a multiple of 8: the tail stays untouched.
			buf := values(r, off+8*n+5)
			got := append([]float32(nil), buf...)
			want := append([]float32(nil), buf...)
			Gather8(got[off:off+8*n+5], rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], rows[6], rows[7])
			for k := 0; k < n; k++ {
				for c := range rows {
					want[off+8*k+c] = rows[c][k]
				}
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d off=%d: [%d] = %v, want %v", n, off, i, got[i], want[i])
			}
			// One row short of len(dst)/8: nothing is written.
			short := append([]float32(nil), buf...)
			if n > 0 {
				Gather8(short[off:off+8*n], rows[0], rows[1], rows[2][:n-1], rows[3], rows[4], rows[5], rows[6], rows[7])
				if i := sameBits(short, buf); i >= 0 {
					t.Fatalf("n=%d off=%d: short row wrote [%d]", n, off, i)
				}
			}
		}
	}
}

// impl is one body of every primitive. The pins below drive each body
// directly against the one-line scalar loop, whatever the dispatch picks,
// so a host with AVX2 tests the scalar fallback too.
type impl struct {
	name     string
	axpy     func(dst, src []float32, a float32)
	axpyRuns func(dst, src []float32, a float32, n, dstStride, srcStride int)
	dot8     func(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32)
	dot8x4   func(s *[4][8]float32, a0, a1, a2, a3, bp []float32)
	dot8x4S  func(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int)
	nonZeros func(idx []int32, x []float32) int
	// block takes Block.Axpy's arguments, for a dst and src the block
	// fits; held reports whether the body takes a block.
	block func(b *Block, dst, src, vals []float32, offs []int32)
	held  func(b *Block) bool
}

// impls returns the scalar bodies and, where the CPU runs them, the
// assembly bodies.
func impls() []impl {
	is := []impl{{"go", axpy, axpyRuns, dot8, dot8x4, segCut(dot8x4Seg), nonZerosCut(nonZeros), scalarBlock,
		func(*Block) bool { return true }}}
	if hasAVX2 {
		is = append(is, impl{"avx2", axpyAVX2, axpyRunsAVX2, dot8AVX2, dot8x4AVX2, segCut(dot8x4SegAVX2), nonZerosCut(nonZerosAVX2), heldBlock,
			func(b *Block) bool { return b.k > 0 }})
	}
	return is
}

// nonZerosCut gives a scan body NonZeros' cut of x to len(idx).
func nonZerosCut(body func(idx []int32, x []float32) int) func(idx []int32, x []float32) int {
	return func(idx []int32, x []float32) int { return body(idx, x[:min(len(x), len(idx))]) }
}

// segCut gives a segmented-dot body Dot8x4Seg's checks and its cut of dst
// to the block.
func segCut(body func(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int)) func(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int) {
	return func(dst []float32, stride int, a0, a1, a2, a3, bp []float32, seg int) {
		if seg < 1 || stride < 8 || stride > len(dst) || 3*stride+8 > len(dst) {
			return
		}
		body(dst[:3*stride+8], stride, a0, a1, a2, a3, bp, seg)
	}
}

// scalarBlock and heldBlock run Block.Axpy's two bodies with its cuts.
func scalarBlock(b *Block, dst, src, vals []float32, offs []int32) {
	m := min(len(vals), len(offs))
	axpyBlock(axpyRuns, dst[:b.size], src, vals[:m], offs[:m], b.n, b.dstStride, b.srcStride, len(src)-b.span)
}

func heldBlock(b *Block, dst, src, vals []float32, offs []int32) {
	m := min(len(vals), len(offs))
	axpyBlockAVX2(dst[:b.size], src, vals[:m], offs[:m], &b.slots, b.k, len(src)-b.span)
}

func TestBodiesAxpyMatchScalarLoop(t *testing.T) {
	for _, im := range impls() {
		r := rng.New(0xB1)
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for _, extra := range [][2]int{{0, 0}, {3, 0}, {0, 5}} {
					src := values(r, off+n+extra[1]+4)[off:]
					src = src[:n+extra[1]]
					for _, a := range scalars(r) {
						buf := values(r, off+n+extra[0]+4)
						got := append([]float32(nil), buf...)
						want := append([]float32(nil), buf...)
						im.axpy(got[off:off+n+extra[0]], src, a)
						wd := want[off : off+n+extra[0]]
						for i := range min(len(wd), len(src)) {
							wd[i] += a * src[i]
						}
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("%s: n=%d off=%d extra=%v a=%v: [%d] = %v, want %v", im.name, n, off, extra, a, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// axpyRunsOracle is AxpyRuns' one-line loop: whole runs while both sides
// hold one, and a single run when either stride is ≤ 0.
func axpyRunsOracle(dst, src []float32, a float32, n, ds, ss int) {
	for run := 0; n > 0 && run*ds+n <= len(dst) && run*ss+n <= len(src); run++ {
		for i := 0; i < n; i++ {
			dst[run*ds+i] += a * src[run*ss+i]
		}
		if ds <= 0 || ss <= 0 {
			return
		}
	}
}

func TestBodiesAxpyRunsMatchScalarLoop(t *testing.T) {
	for _, im := range impls() {
		r := rng.New(0xB2)
		for n := 0; n <= 20; n++ {
			for _, strides := range [][2]int{{n + 1, n}, {n, n + 7}, {2*n + 3, n + 1}, {1, 2}, {n + 5, 3}, {0, n}, {n, 0}, {-1, n}, {n, -3}} {
				ds, ss := strides[0], strides[1]
				for off := 0; off < 8; off += 3 {
					dlen, slen := 3*max(ds, 1)+n+n/2, 3*max(ss, 1)+n+n/3
					src := values(r, off+slen)[off:]
					for _, a := range scalars(r) {
						buf := values(r, off+dlen+2)
						got := append([]float32(nil), buf...)
						want := append([]float32(nil), buf...)
						im.axpyRuns(got[off:off+dlen], src, a, n, ds, ss)
						axpyRunsOracle(want[off:off+dlen], src, a, n, ds, ss)
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("%s: n=%d strides=%d,%d off=%d a=%v: [%d] = %v, want %v", im.name, n, ds, ss, off, a, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAxpyRunsZeroStridesReturn pins the one-run rule: with both strides 0
// the walk used to re-run the same window forever.
func TestAxpyRunsZeroStridesReturn(t *testing.T) {
	for _, im := range append(impls(), impl{name: "dispatch", axpyRuns: AxpyRuns}) {
		done := make(chan []float32)
		go func() {
			dst := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			im.axpyRuns(dst, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2, 9, 0, 0)
			done <- dst
		}()
		select {
		case dst := <-done:
			for i, v := range dst {
				want := float32(i + 1)
				if i < 9 {
					want += 2
				}
				if v != want {
					t.Fatalf("%s: dst[%d] = %v, want %v (one run)", im.name, i, v, want)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: AxpyRuns with both strides 0 did not return", im.name)
		}
	}
}

func TestBodiesDot8MatchScalarLoop(t *testing.T) {
	ks := []int{75, 576, 1153}
	for k := 0; k <= 70; k++ {
		ks = append(ks, k)
	}
	for _, im := range impls() {
		r := rng.New(0xB3)
		for _, k := range ks {
			for off := 0; off < 8; off++ {
				for _, extra := range [][2]int{{0, 0}, {2, 0}, {0, 5}} {
					a := values(r, off+k+extra[0])[off:]
					bp := values(r, off+8*k+extra[1])[off:]
					var got [8]float32
					got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7] = im.dot8(a, bp)
					var want [8]float32
					for c := range want {
						for i := 0; i < min(len(a), len(bp)/8); i++ {
							want[c] += a[i] * bp[8*i+c]
						}
					}
					if i := sameBits(got[:], want[:]); i >= 0 {
						t.Fatalf("%s: K=%d off=%d extra=%v: s%d = %v, want %v", im.name, k, off, extra, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDot8x4MatchesFourDot8 cuts four rows of ragged length from one
// buffer with row stride lda > K: each result row must be the one-line
// dot of that row, cut to the shared K, against the panel.
func TestDot8x4MatchesFourDot8(t *testing.T) {
	for _, im := range append(impls(), impl{name: "dispatch", dot8x4: Dot8x4}) {
		r := rng.New(0xB4)
		for k := 0; k <= 70; k++ {
			for off := 0; off < 8; off++ {
				lda := k + 1 + r.Intn(9)
				buf := values(r, off+4*lda)[off:]
				// One row is exactly K long; the others run on into the
				// gap before the next row.
				var rows [4][]float32
				short := r.Intn(4)
				for i := range rows {
					n := k + r.Intn(lda-k+1)
					if i == short {
						n = k
					}
					rows[i] = buf[i*lda : i*lda+n]
				}
				// Panels of K rows, with a partial trailing row, with
				// spare rows, and one short of K.
				for _, plen := range []int{8 * k, 8*k + 5, 8*k + 24, max(8*k-5, 0)} {
					bp := values(r, off+plen)[off:]
					got := [4][8]float32{{1, 2, 3}, {4}, {5}, {6}}
					im.dot8x4(&got, rows[0], rows[1], rows[2], rows[3], bp)
					kk := min(len(rows[0]), len(rows[1]), len(rows[2]), len(rows[3]), len(bp)/8)
					var want [4][8]float32
					for i, row := range rows {
						for c := range want[i] {
							for j := 0; j < kk; j++ {
								want[i][c] += row[j] * bp[8*j+c]
							}
						}
					}
					for i := range got {
						if j := sameBits(got[i][:], want[i][:]); j >= 0 {
							t.Fatalf("%s: K=%d lda=%d off=%d len(bp)=%d: s[%d][%d] = %v, want %v", im.name, k, lda, off, len(bp), i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		}
	}
}

// TestDot8x4SegMatchesBlockAdds holds every body of Dot8x4Seg to the loop
// it documents: per whole segment, a fresh one-line dot of each row from
// zero, added to the block. Rows are ragged (the shortest sets K), the
// panel may end mid-segment, the block's rows sit stride apart in a
// buffer of special values, and nothing outside the block may change.
func TestDot8x4SegMatchesBlockAdds(t *testing.T) {
	for _, im := range append(impls(), impl{name: "dispatch", dot8x4S: Dot8x4Seg}) {
		r := rng.New(0xB6)
		for seg := 1; seg <= 40; seg++ {
			for _, nseg := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 20} {
				n := seg * nseg
				var rows [4][]float32
				for i := range rows {
					rows[i] = values(r, n+r.Intn(3))
				}
				stride := 8 + r.Intn(9)
				// A panel of whole segments, with a partial one after,
				// or one row short of the last segment.
				for _, plen := range []int{8 * n, 8*n + 8*(seg/2) + 3, 8*n - 8} {
					bp := values(r, plen)
					got := values(r, 3*stride+8+r.Intn(3))
					want := append([]float32(nil), got...)
					im.dot8x4S(got, stride, rows[0], rows[1], rows[2], rows[3], bp, seg)
					kk := min(len(rows[0]), len(rows[1]), len(rows[2]), len(rows[3]), len(bp)/8)
					for j := 0; (j+1)*seg <= kk; j++ {
						for i, row := range rows {
							for c := 0; c < 8; c++ {
								var d float32
								for k := j * seg; k < (j+1)*seg; k++ {
									d += row[k] * bp[8*k+c]
								}
								want[i*stride+c] += d
							}
						}
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s: seg=%d nseg=%d stride=%d len(bp)=%d: dst[%d] = %v, want %v", im.name, seg, nseg, stride, len(bp), i, got[i], want[i])
					}
				}
			}
		}
		// seg < 1, no whole segment, stride < 8 and a dst short of the
		// block leave dst alone.
		a, bp := values(r, 8), values(r, 64)
		for _, c := range []struct{ seg, stride, n int }{{0, 8, 32}, {-3, 8, 32}, {9, 8, 32}, {2, 7, 32}, {2, 8, 31}, {2, 10, 37}} {
			got := values(r, c.n)
			want := append([]float32(nil), got...)
			im.dot8x4S(got, c.stride, a, a, a, a, bp, c.seg)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s: seg=%d stride=%d len(dst)=%d changed dst[%d]", im.name, c.seg, c.stride, c.n, i)
			}
		}
	}
}

// TestNoFusedMultiplyAdd pins the unfused chain: x·x is inexact in float32,
// so c + x·x rounds twice in the scalar loop (to 0) and once under FMA (to
// 2^-24). Every body must return the unfused bits, with the deciding add
// at every position of every unrolled loop and tail.
func TestNoFusedMultiplyAdd(t *testing.T) {
	x := float32(1 + 1.0/4096)
	c := -(1 + float32(1.0/2048))
	unfused := float32(0)
	if fused := float32(math.FMA(float64(x), float64(x), float64(c))); fused == unfused {
		t.Fatalf("FMA(%v, %v, %v) = %v: the case does not separate fused from unfused", x, x, c, fused)
	}
	fill := func(n int, v float32) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	check := func(name string, got []float32) {
		t.Helper()
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(unfused) {
				t.Fatalf("%s: [%d] = %v, want unfused %v", name, i, v, unfused)
			}
		}
	}
	for _, im := range impls() {
		// Axpy and AxpyRuns: dst = c, then dst += x·x, element by element.
		for n := 1; n <= 70; n++ {
			dst := fill(n, c)
			im.axpy(dst, fill(n, x), x)
			check(fmt.Sprintf("%s: axpy n=%d", im.name, n), dst)
			dst = fill(3*n, c)
			im.axpyRuns(dst, fill(3*n, x), x, n, n, n)
			check(fmt.Sprintf("%s: axpyRuns n=%d", im.name, n), dst)
		}
		// AxpyBlock: dst = c, then three entries over the same window of
		// x: += 0·x, += x·x, += 0·x, so the deciding add is mid-walk.
		for n := 1; n <= 70; n++ {
			for rows := 1; rows <= 12; rows++ {
				b := NewBlock(rows, n, n, n)
				if !im.held(&b) {
					continue
				}
				dst := fill(rows*n, c)
				im.block(&b, dst, fill(rows*n, x), []float32{0, x, 0}, []int32{0, 0, 0})
				check(fmt.Sprintf("%s: axpyBlock rows=%d n=%d", im.name, rows, n), dst)
			}
		}
		// Dot8 and Dot8x4: s = 0 before step j, 1·c at j, += x·x at j+1,
		// then += 0·0 to step K.
		for k := 2; k <= 12; k++ {
			for j := 0; j+1 < k; j++ {
				a := make([]float32, k)
				a[j], a[j+1] = 1, x
				bp := make([]float32, 8*k)
				copy(bp[8*j:], fill(8, c))
				copy(bp[8*(j+1):], fill(8, x))
				var s [4][8]float32
				s[0][0], s[0][1], s[0][2], s[0][3], s[0][4], s[0][5], s[0][6], s[0][7] = im.dot8(a, bp)
				check(fmt.Sprintf("%s: dot8 K=%d j=%d", im.name, k, j), s[0][:])
				im.dot8x4(&s, a, a, a, a, bp)
				for r := range s {
					check(fmt.Sprintf("%s: dot8x4 K=%d j=%d row %d", im.name, k, j, r), s[r][:])
				}
				// Dot8x4Seg: the same chain as the last of two and of
				// three segments, after all-zero ones, into a zero block.
				for _, pre := range []int{1, 2} {
					sa := append(make([]float32, pre*k), a...)
					sbp := append(make([]float32, 8*pre*k), bp...)
					blk := make([]float32, 32)
					im.dot8x4S(blk, 8, sa, sa, sa, sa, sbp, k)
					check(fmt.Sprintf("%s: dot8x4Seg K=%d j=%d segment %d", im.name, k, j, pre), blk)
				}
			}
		}
	}
}

// sparseValues fills n floats of which about three in five are ±0 and
// the rest values' mix, specials included.
func sparseValues(r *rng.RNG, n int) []float32 {
	v := values(r, n)
	for i := range v {
		switch r.Intn(5) {
		case 0, 1:
			v[i] = 0
		case 2:
			v[i] = float32(math.Copysign(0, -1))
		}
	}
	return v
}

// nonZerosOracle is NonZeros' one-line loop over x cut to len(idx).
func nonZerosOracle(idx []int32, x []float32) int {
	n := 0
	for i, v := range x[:min(len(x), len(idx))] {
		if v != 0 {
			idx[n] = int32(i)
			n++
		}
	}
	return n
}

func TestBodiesNonZerosMatchScalarLoop(t *testing.T) {
	for _, im := range append(impls(), impl{name: "dispatch", nonZeros: NonZeros}) {
		r := rng.New(0xB5)
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for _, dense := range []bool{false, true} {
					x := sparseValues(r, off+n)[off:]
					if dense {
						x = values(r, off+n)[off:]
					}
					// An index list as long as x, and one three short: the
					// scan stops at len(idx). Past the count, idx is untouched.
					for _, short := range []int{0, min(3, n)} {
						got, want := make([]int32, n-short+2), make([]int32, n-short+2)
						for i := range got {
							got[i], want[i] = -7, -7
						}
						gn := im.nonZeros(got[:n-short], x)
						wn := nonZerosOracle(want[:n-short], x)
						if gn != wn {
							t.Fatalf("%s: n=%d off=%d short=%d: count %d, want %d", im.name, n, off, short, gn, wn)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: n=%d off=%d short=%d: idx[%d] = %d, want %d", im.name, n, off, short, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// axpyBlockOracle is Block.Axpy as repeated one-line AxpyRuns loops over
// the block cut to its rows.
func axpyBlockOracle(dst, src, vals []float32, offs []int32, rows, n, ds, ss int) {
	dst = dst[:(rows-1)*ds+n]
	span := (rows-1)*ss + n
	for p := range min(len(vals), len(offs)) {
		o := int(offs[p])
		if o < 0 || o+span > len(src) {
			return
		}
		axpyRunsOracle(dst, src[o:], vals[p], n, ds, ss)
	}
}

// blockCase draws a block walk: dst and src misaligned by off, a list of
// windows (repeats and neighbours included) with special values, and,
// when bad, one window past the end of src or below it mid-list.
func blockCase(r *rng.RNG, rows, n, ds, ss, off int, bad bool) (buf, src, vals []float32, offs []int32) {
	span := (rows-1)*ss + n
	src = values(r, off+span+40)[off:]
	vals = values(r, 1+r.Intn(9))
	offs = make([]int32, len(vals)+r.Intn(2)) // sometimes one offset more than values
	for p := range offs {
		offs[p] = int32(r.Intn(len(src) - span + 1))
		if p > 0 && r.Intn(4) == 0 {
			offs[p] = offs[p-1]
		}
	}
	if bad && len(offs) > 1 {
		p := 1 + r.Intn(len(offs)-1)
		offs[p] = []int32{int32(len(src) - span + 1), -1, int32(len(src))}[r.Intn(3)]
	}
	buf = values(r, off+(rows-1)*ds+n+3)
	return buf, src, vals, offs
}

func TestBodiesBlockMatchesAxpyRuns(t *testing.T) {
	for _, im := range impls() {
		r := rng.New(0xB6)
		for n := 1; n <= 70; n++ {
			for rows := 1; rows <= 12; rows++ {
				for _, st := range [][2]int{{n, n}, {n + 3, 2*n + 1}, {n, n + 96}} {
					ds, ss := st[0], st[1]
					b := NewBlock(rows, n, ds, ss)
					if !im.held(&b) || (im.name == "go" && rows > 3) {
						continue
					}
					for off := 0; off < 8; off++ {
						buf, src, vals, offs := blockCase(r, rows, n, ds, ss, off, off%3 == 2)
						got := append([]float32(nil), buf...)
						want := append([]float32(nil), buf...)
						im.block(&b, got[off:], src, vals, offs)
						axpyBlockOracle(want[off:], src, vals, offs, rows, n, ds, ss)
						if i := sameBits(got, want); i >= 0 {
							t.Fatalf("%s: rows=%d n=%d strides=%d,%d off=%d offs=%v: [%d] = %v, want %v",
								im.name, rows, n, ds, ss, off, offs, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBlockDispatch drives Block.Axpy over shapes the assembly does not
// hold (n < 8, more than BlockVectors vectors) as well as ones it does, a
// dst too short for the block, and the overlap panic.
func TestBlockDispatch(t *testing.T) {
	r := rng.New(0xB7)
	for _, sh := range [][2]int{{5, 5}, {1, 7}, {5, 15}, {1, 96}, {1, 97}, {2, 64}, {5, 320}, {3, 1}} {
		rows, n := sh[0], sh[1]
		for off := 0; off < 8; off += 3 {
			buf, src, vals, offs := blockCase(r, rows, n, n+1, n+2, off, off == 6)
			got := append([]float32(nil), buf...)
			want := append([]float32(nil), buf...)
			b := NewBlock(rows, n, n+1, n+2)
			b.Axpy(got[off:], src, vals, offs)
			axpyBlockOracle(want[off:], src, vals, offs, rows, n, n+1, n+2)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("rows=%d n=%d off=%d: [%d] = %v, want %v", rows, n, off, i, got[i], want[i])
			}
			short := append([]float32(nil), buf...)
			b.Axpy(short[off:off+(rows-1)*(n+1)+n-1], src, vals, offs)
			if i := sameBits(short, buf); i >= 0 {
				t.Fatalf("rows=%d n=%d off=%d: a short block wrote [%d]", rows, n, off, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBlock with overlapping rows did not panic")
		}
	}()
	NewBlock(2, 8, 7, 8)
}

// benchLengths are the row lengths the engines run: 4-wide tails, a 3×3
// tap row, CIFAR conv0's 15-float runs, a 5×5×3 window, 144-float rows and
// a long 1600-float reduction.
var benchLengths = []int{4, 9, 15, 75, 144, 1600}

func BenchmarkAxpy(b *testing.B) {
	r := rng.New(1)
	for _, im := range impls() {
		for _, n := range benchLengths {
			dst, src := make([]float32, n), make([]float32, n)
			for i := range src {
				dst[i], src[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
			}
			b.Run(fmt.Sprintf("%s/n=%d", im.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					im.axpy(dst, src, 1e-3)
				}
				b.ReportMetric(2*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
			})
		}
	}
}

// BenchmarkAxpyRuns runs spkernel's CIFAR conv0 shape: five 15-float runs
// of a 5×5×3 window, one side an image row apart (32·3 floats), the other
// packed.
func BenchmarkAxpyRuns(b *testing.B) {
	const n, rowStride, runs = 15, 96, 5
	r := rng.New(3)
	dst, src := make([]float32, (runs-1)*rowStride+n), make([]float32, runs*n)
	for i := range dst {
		dst[i] = float32(r.NormFloat64())
	}
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	for _, im := range impls() {
		b.Run(im.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				im.axpyRuns(dst, src, 1e-3, n, rowStride, n)
			}
			b.ReportMetric(2*n*runs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
		})
	}
}

// BenchmarkNonZeros scans one CIFAR conv0 EO plane (32×32) at the
// layer's ~94 % sparsity and at 50 %.
func BenchmarkNonZeros(b *testing.B) {
	r := rng.New(4)
	for _, im := range impls() {
		for _, density := range []int{16, 2} {
			x := make([]float32, 1024)
			for i := range x {
				if r.Intn(density) == 0 {
					x[i] = float32(r.NormFloat64())
				}
			}
			idx := make([]int32, len(x))
			b.Run(fmt.Sprintf("%s/1in%d", im.name, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkN += im.nonZeros(idx, x)
				}
				b.ReportMetric(float64(len(x))*4*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}

// BenchmarkBlock walks CIFAR conv0's dW′ block (5 runs of 15 floats,
// image rows 96 floats apart) over 64 windows, against one AxpyRuns call
// per window.
func BenchmarkBlock(b *testing.B) {
	const n, rows, rowStride, windows = 15, 5, 96, 64
	r := rng.New(5)
	src := make([]float32, 32*rowStride)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	vals, offs := make([]float32, windows), make([]int32, windows)
	for p := range offs {
		vals[p] = float32(r.NormFloat64())
		offs[p] = int32(r.Intn(len(src) - (rows-1)*rowStride - n))
	}
	dst := make([]float32, rows*n)
	blk := NewBlock(rows, n, n, rowStride)
	for _, im := range impls() {
		b.Run(im.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				im.block(&blk, dst, src, vals, offs)
			}
			b.ReportMetric(2*n*rows*windows*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
		})
		b.Run(im.name+"/runs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for p, o := range offs {
					im.axpyRuns(dst, src[o:], vals[p], n, n, rowStride)
				}
			}
			b.ReportMetric(2*n*rows*windows*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
		})
	}
}

// sinkN keeps NonZeros' counts live.
var sinkN int

// sink keeps Dot8's results live.
var sink float32

// BenchmarkDot8 times one row (Dot8) and the four-row block (x4) against
// one K-row panel.
func BenchmarkDot8(b *testing.B) {
	r := rng.New(2)
	for _, im := range impls() {
		for _, k := range benchLengths {
			a, bp := make([]float32, 4*k), make([]float32, 8*k)
			for i := range a {
				a[i] = float32(r.NormFloat64())
			}
			for i := range bp {
				bp[i] = float32(r.NormFloat64())
			}
			b.Run(fmt.Sprintf("%s/K=%d", im.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s0, _, _, _, _, _, _, s7 := im.dot8(a[:k], bp)
					sink += s0 + s7
				}
				b.ReportMetric(16*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
			})
			b.Run(fmt.Sprintf("%s/x4/K=%d", im.name, k), func(b *testing.B) {
				var s [4][8]float32
				for i := 0; i < b.N; i++ {
					im.dot8x4(&s, a[:k], a[k:2*k], a[2*k:3*k], a[3*k:], bp)
					sink += s[0][0] + s[3][7]
				}
				b.ReportMetric(64*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
			})
			// The block carried over K/16 segments of 16: CIFAR conv1's
			// BP-dW, one segment per image.
			b.Run(fmt.Sprintf("%s/x4seg16/K=%d", im.name, k), func(b *testing.B) {
				blk := make([]float32, 32)
				for i := 0; i < b.N; i++ {
					im.dot8x4S(blk, 8, a[:k], a[k:2*k], a[2*k:3*k], a[3*k:], bp, 16)
				}
				sink += blk[0] + blk[31]
				b.ReportMetric(64*float64(k/16*16)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
			})
		}
	}
}
