package dataparallel

import (
	"testing"

	"spgcnn/internal/rng"
)

// makeViews builds n replica views over params of the given sizes, filled
// deterministically (every replica different).
func makeViews(n int, sizes []int, seed uint64) [][][]float32 {
	r := rng.New(seed)
	views := make([][][]float32, n)
	for w := 0; w < n; w++ {
		views[w] = make([][]float32, len(sizes))
		for j, l := range sizes {
			v := make([]float32, l)
			for i := range v {
				v[i] = r.Float32()*2 - 1
			}
			views[w][j] = v
		}
	}
	return views
}

func cloneViews(views [][][]float32) [][][]float32 {
	out := make([][][]float32, len(views))
	for w := range views {
		out[w] = make([][]float32, len(views[w]))
		for j := range views[w] {
			out[w][j] = append([]float32(nil), views[w][j]...)
		}
	}
	return out
}

// flatMean is the reference the ring is pinned against — the drift-fixed
// serial mean: one pass per replica accumulates into a float64 scratch
// vector (a float32 sum into replica 0 loses low-order bits by 64
// replicas), then one pass per replica writes the mean back.
func flatMean(views [][][]float32) {
	n := len(views)
	inv := 1 / float64(n)
	for j := range views[0] {
		acc := make([]float64, len(views[0][j]))
		for r := 0; r < n; r++ {
			for i, v := range views[r][j] {
				acc[i] += float64(v)
			}
		}
		for r := 0; r < n; r++ {
			dst := views[r][j]
			for i := range dst {
				dst[i] = float32(acc[i] * inv)
			}
		}
	}
}

// TestRingBitIdenticalToFlat is the pinned dense bit-identity: the chunked
// ring schedule must produce byte-for-byte the same mean as the flat
// float64 path, at replica counts and lengths that exercise partial chunks,
// chunk-boundary lengths, empty parameters and more ring workers than
// chunks.
func TestRingBitIdenticalToFlat(t *testing.T) {
	cases := []struct {
		n     int
		sizes []int
	}{
		{2, []int{3, reduceChunkElems, reduceChunkElems*2 + 17, 1000}},
		{3, []int{3, reduceChunkElems, reduceChunkElems*2 + 17, 1000}},
		{8, []int{3, reduceChunkElems, reduceChunkElems*2 + 17, 1000}},
		{3, []int{5, 0, 11}},
		{4, []int{reduceChunkElems - 1, reduceChunkElems, reduceChunkElems + 1}},
		{8, []int{3}},
	}
	for _, tc := range cases {
		flat := makeViews(tc.n, tc.sizes, 42)
		ring := cloneViews(flat)
		flatMean(flat)
		newRing(ring).reduce()
		for w := range flat {
			for j := range flat[w] {
				for i := range flat[w][j] {
					if flat[w][j][i] != ring[w][j][i] {
						t.Fatalf("n=%d sizes %v replica %d param %d elem %d: flat %v != ring %v",
							tc.n, tc.sizes, w, j, i, flat[w][j][i], ring[w][j][i])
					}
				}
			}
		}
	}
}

// TestFlatDriftRegression64Replicas pins the drift fix: with 64 replicas
// where replica 0 holds 1.0 and the rest hold 1e-8, float32 sequential
// accumulation absorbs every small contribution (1 + 1e-8 == 1 in float32)
// and returns exactly 1/64; the ring and the flat reference must both
// preserve them.
func TestFlatDriftRegression64Replicas(t *testing.T) {
	const n = 64
	views := make([][][]float32, n)
	for w := range views {
		v := make([]float32, 257)
		val := float32(1e-8)
		if w == 0 {
			val = 1
		}
		for i := range v {
			v[i] = val
		}
		views[w] = [][]float32{v}
	}
	want := float32((1.0 + 63*1e-8) / 64)
	lost := float32(1.0 / 64) // what float32 sequential accumulation returns
	if want == lost {
		t.Fatal("test vector does not distinguish the accumulators")
	}
	for name, mean := range map[string]func([][][]float32){
		"flat": flatMean,
		"ring": func(vs [][][]float32) { newRing(vs).reduce() },
	} {
		vs := cloneViews(views)
		mean(vs)
		for w := range vs {
			for i, got := range vs[w][0] {
				if got != want {
					t.Fatalf("%s replica %d elem %d: got %v, want %v (float32 drift would give %v)",
						name, w, i, got, want, lost)
				}
			}
		}
	}
}
