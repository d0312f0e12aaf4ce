package kern

import (
	"fmt"
	"math"
	"testing"

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

// benchLengths are the row lengths the engines run: 4-wide tails, a 3×3
// tap row, CIFAR conv0's 15-float runs, a 5×5×3 window, 144-float rows and
// a long 1600-float reduction.
var benchLengths = []int{4, 9, 15, 75, 144, 1600}

func BenchmarkAxpy(b *testing.B) {
	r := rng.New(1)
	for _, n := range benchLengths {
		dst, src := make([]float32, n), make([]float32, n)
		for i := range src {
			dst[i], src[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Axpy(dst, src, 1e-3)
			}
			b.ReportMetric(2*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
		})
	}
}

// sink keeps Dot8's results live.
var sink float32

func BenchmarkDot8(b *testing.B) {
	r := rng.New(2)
	for _, k := range benchLengths {
		a, bp := make([]float32, k), make([]float32, 8*k)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range bp {
			bp[i] = float32(r.NormFloat64())
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s0, _, _, _, _, _, _, s7 := Dot8(a, bp)
				sink += s0 + s7
			}
			b.ReportMetric(16*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
		})
	}
}
