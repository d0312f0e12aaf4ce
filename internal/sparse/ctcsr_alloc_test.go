package sparse

import (
	"testing"

	"spgcnn/internal/rng"
)

// makeDelta fills buf with a density-d vector, deterministic per seed.
func makeDelta(buf []float32, density float64, seed uint64) {
	r := rng.New(seed)
	for i := range buf {
		if r.Float64() < density {
			buf[i] = r.Float32()*2 - 1
		} else {
			buf[i] = 0
		}
	}
}

// TestFromDenseCTIntoSteadyStateAllocs pins the property the sync path
// depends on: once the tile skeletons have grown to steady-state capacity,
// re-encoding a same-shaped vector allocates nothing — the data-parallel
// exchange calls this once per replica per sync round.
func TestFromDenseCTIntoSteadyStateAllocs(t *testing.T) {
	const l = 1 << 16
	buf := make([]float32, l)
	m := &CTCSR{}
	// Warm to worst-case capacity with a dense pass, then steady-state
	// re-encodes at shifting sparse contents.
	makeDelta(buf, 1.0, 1)
	FromDenseCTInto(m, buf, 1, l, DefaultTileWidth)
	seed := uint64(2)
	allocs := testing.AllocsPerRun(20, func() {
		makeDelta(buf, 0.05, seed)
		seed++
		FromDenseCTInto(m, buf, 1, l, DefaultTileWidth)
	})
	if allocs != 0 {
		t.Fatalf("steady-state re-encode allocates %v times per run, want 0", allocs)
	}
}

// TestFromPlanesCTIntoSteadyStateAllocs pins the same property for the
// plane-major encoder the sparse BP kernel runs once per sample per step.
func TestFromPlanesCTIntoSteadyStateAllocs(t *testing.T) {
	const rows, cols = 1 << 10, 1 << 6 // CIFAR conv0's EO: 64 planes of 32x32
	buf := make([]float32, rows*cols)
	m := &CTCSR{}
	makeDelta(buf, 1.0, 1)
	FromPlanesCTInto(m, buf, rows, cols, DefaultTileWidth)
	seed := uint64(2)
	allocs := testing.AllocsPerRun(20, func() {
		makeDelta(buf, 0.06, seed)
		seed++
		FromPlanesCTInto(m, buf, rows, cols, DefaultTileWidth)
	})
	if allocs != 0 {
		t.Fatalf("steady-state re-encode allocates %v times per run, want 0", allocs)
	}
}

// TestFromDenseCTIntoRoundTrip checks the re-encode round-trips exactly
// across shrinking and growing contents in the same skeleton.
func TestFromDenseCTIntoRoundTrip(t *testing.T) {
	const l = 4*DefaultTileWidth + 17
	buf := make([]float32, l)
	m := &CTCSR{}
	for round, density := range []float64{0.5, 0.01, 0, 1.0, 0.1} {
		makeDelta(buf, density, uint64(round+1))
		FromDenseCTInto(m, buf, 1, l, DefaultTileWidth)
		got := m.ToDense()
		if len(got) != l {
			t.Fatalf("round %d: length %d, want %d", round, len(got), l)
		}
		nnz := 0
		for i := range buf {
			if got[i] != buf[i] {
				t.Fatalf("round %d: elem %d = %v, want %v", round, i, got[i], buf[i])
			}
			if buf[i] != 0 {
				nnz++
			}
		}
		if m.NNZ() != nnz {
			t.Fatalf("round %d: NNZ %d, want %d", round, m.NNZ(), nnz)
		}
	}
}

// BenchmarkFromDenseCTIntoReencode measures the per-round re-encode cost
// of the sparse gradient exchange at a typical delta density.
func BenchmarkFromDenseCTIntoReencode(b *testing.B) {
	const l = 1 << 18
	buf := make([]float32, l)
	makeDelta(buf, 0.05, 3)
	m := &CTCSR{}
	FromDenseCTInto(m, buf, 1, l, DefaultTileWidth)
	b.SetBytes(int64(l * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromDenseCTInto(m, buf, 1, l, DefaultTileWidth)
	}
}

// BenchmarkFromPlanesCTInto measures the per-sample EO compression of the
// sparse BP kernel at CIFAR conv0's shape and sparsity.
func BenchmarkFromPlanesCTInto(b *testing.B) {
	const rows, cols = 1 << 10, 1 << 6
	buf := make([]float32, rows*cols)
	makeDelta(buf, 0.06, 3)
	m := &CTCSR{}
	FromPlanesCTInto(m, buf, rows, cols, DefaultTileWidth)
	b.SetBytes(int64(len(buf) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromPlanesCTInto(m, buf, rows, cols, DefaultTileWidth)
	}
}
