package kern

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/rng"
)

// glueSpecials are the float32 bit patterns the branch-free compares must
// treat exactly as the float compare does.
var glueSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffffffff, // NaNs
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
	0x00800000, 0x80800000, // smallest normals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x3f800000, 0xbf800000, // ±1
}

// glueValues returns n floats of one input family: N(0,1) draws, a ReLU
// output (about half exact zeros), or specials, ties and NaN window
// leaders at high density.
func glueValues(kind string, r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for j := range v {
		v[j] = float32(r.NormFloat64())
		switch kind {
		case "relu-ties":
			v[j] = max(v[j], 0)
		case "specials":
			if r.Float32() < 0.6 {
				v[j] = math.Float32frombits(glueSpecials[r.Intn(len(glueSpecials))])
			}
		}
	}
	return v
}

var glueKinds = []string{"normal", "relu-ties", "specials"}

// maxPoolOracle is the branchy window walk: a strict v > best in row-major
// order, seeded with the window's first element.
func maxPoolOracle(am []int32, band []float32, base, w, size, stride int) {
	for ox := range am {
		at := ox * stride
		best := band[at]
		for ky := 0; ky < size; ky++ {
			for kx := 0; kx < size; kx++ {
				if v := band[ky*w+ox*stride+kx]; v > best {
					best, at = v, ky*w+ox*stride+kx
				}
			}
		}
		am[ox] = int32(base + at)
	}
}

// TestMaxPoolBodiesMatchOracle pins the dispatch (the AVX2 body on an AVX2
// host for the 2/2 and 4/4 windows) and the scalar twin to the branchy
// oracle, index for index, over every input family, the four committed and
// generic (size, stride) pairs, and output widths that are and are not
// whole 8-column groups, at a band start that is not a multiple of 8.
func TestMaxPoolBodiesMatchOracle(t *testing.T) {
	r := rng.New(0x9001)
	for _, kind := range glueKinds {
		for _, geo := range [][2]int{{2, 2}, {4, 4}, {3, 2}, {3, 1}} {
			size, stride := geo[0], geo[1]
			for _, outW := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 70} {
				w := (outW-1)*stride + size + 3 // rows wider than the windows
				band := glueValues(kind, r, 5+(size-1)*w+(outW-1)*stride+size)[5:]
				const base = 1000
				want := make([]int32, outW+2)
				maxPoolOracle(want[:outW], band, base, w, size, stride)
				for _, body := range []struct {
					name string
					run  func(am []int32, band []float32, base, w, size, stride int)
				}{{"go", maxPool}, {"dispatch", MaxPool}} {
					got := make([]int32, outW+2)
					got[outW], got[outW+1] = -7, -7
					want[outW], want[outW+1] = -7, -7
					body.run(got[:outW], band, base, w, size, stride)
					for o := range got {
						if got[o] != want[o] {
							t.Fatalf("%s %s %d/%d outW=%d: am[%d] = %d, want %d",
								body.name, kind, size, stride, outW, o, got[o], want[o])
						}
					}
				}
			}
		}
	}
}

// TestMaxPoolShortBandPanics pins the bounds contract: a band that cannot
// hold the windows panics in either body instead of reading past it.
func TestMaxPoolShortBandPanics(t *testing.T) {
	for _, geo := range [][2]int{{2, 2}, {4, 4}, {3, 2}} {
		size, stride := geo[0], geo[1]
		band := make([]float32, (size-1)*32+7*stride+size-1) // one float short
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d/%d: a short band did not panic", size, stride)
				}
			}()
			MaxPool(make([]int32, 8), band, 0, 32, size, stride)
		}()
	}
}

// TestEpilogueMatchesBiasThenReLU pins both epilogue bodies (the dispatch
// runs the AVX2 one on an AVX2 host) to a bias pass, skipping b == 0,
// followed by the ReLU select, bit for bit, over every input family, bias
// and length up to five vectors and a tail, with and without ReLU.
func TestEpilogueMatchesBiasThenReLU(t *testing.T) {
	r := rng.New(0x9002)
	for _, body := range []struct {
		name string
		run  func(p []float32, b float32, relu bool)
	}{{"go", epilogue}, {"dispatch", Epilogue}} {
		for _, kind := range glueKinds {
			for _, b := range []float32{0, float32(math.Copysign(0, -1)), 0.25, -1.5, float32(math.Inf(1)), float32(math.NaN())} {
				for _, relu := range []bool{false, true} {
					for n := 0; n <= 45; n++ {
						x := glueValues(kind, r, n+1)
						got, want := append([]float32(nil), x...), append([]float32(nil), x...)
						body.run(got[:n], b, relu)
						for j := range want[:n] {
							if b != 0 {
								want[j] += b
							}
							if relu && !(want[j] > 0) {
								want[j] = 0
							}
						}
						for j := range got {
							if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
								t.Fatalf("%s %s b=%v relu=%v n=%d: [%d] = %#x, want %#x", body.name, kind, b, relu, n, j,
									math.Float32bits(got[j]), math.Float32bits(want[j]))
							}
						}
					}
				}
			}
		}
	}
}

func BenchmarkMaxPool(b *testing.B) {
	// One CIFAR pool0 output row: 8 windows of 4x4 over a 32-wide band, and
	// MNIST's 12 windows of 2x2 over a 24-wide one.
	for _, geo := range []struct{ w, size, outW int }{{32, 4, 8}, {24, 2, 12}} {
		band := glueValues("normal", rng.New(1), (geo.size-1)*geo.w+geo.outW*geo.size)
		am := make([]int32, geo.outW)
		for _, body := range []struct {
			name string
			run  func(am []int32, band []float32, base, w, size, stride int)
		}{{"go", maxPool}, {"dispatch", MaxPool}} {
			b.Run(fmt.Sprintf("%d/%s", geo.size, body.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body.run(am, band, 0, geo.w, geo.size, geo.size)
				}
			})
		}
	}
}

func BenchmarkEpilogue(b *testing.B) {
	// One CIFAR conv0 output plane (32x32) with bias and ReLU.
	p := glueValues("normal", rng.New(1), 1024)
	for _, body := range []struct {
		name string
		run  func(p []float32, b float32, relu bool)
	}{{"go", epilogue}, {"dispatch", Epilogue}} {
		b.Run(body.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body.run(p, 0.25, true)
			}
		})
	}
}
