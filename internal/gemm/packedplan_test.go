package gemm

import (
	"testing"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestPackBMatchesNaive(t *testing.T) {
	r := rng.New(31)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {4, 7, 8}, {5, 3, 7}, {13, 300, 9}, {64, 64, 64},
		{65, 385, 513}, {3, 9, 515}, {37, 41, 43}, {8, 1, 9},
	}
	for _, s := range shapes {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)
		want := NewMatrix(s.m, s.n)
		Naive(want, a, b)

		p := PackB(b, nil)
		got := NewMatrix(s.m, s.n)
		MulPacked(got, a, p)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("MulPacked differs from Naive for %dx%dx%d", s.m, s.k, s.n)
		}
		p.Release()
	}
}

func TestPackBTransMatchesMulTransB(t *testing.T) {
	// The packed path must be BIT-identical to the dotRows8 path: both keep
	// one k-ordered accumulator per output element.
	r := rng.New(32)
	for _, s := range []struct{ m, k, n int }{{9, 33, 17}, {64, 576, 128}, {5, 100, 1}} {
		a := randMatrix(r, s.m, s.k)
		src := randMatrix(r, s.n, s.k) // C = A·srcᵀ
		want := NewMatrix(s.m, s.n)
		mulTransBRange(want, a, src, 0, s.m)

		p := PackBTrans(src, nil)
		got := NewMatrix(s.m, s.n)
		MulPacked(got, a, p)
		p.Release()
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("packed path not bit-identical to dot path at %d: %v != %v",
					i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestPackedPlanArenaAllocator(t *testing.T) {
	// The Allocator seam: panels drawn from a tensor.Arena are returned to
	// it on Release and reused by the next pack.
	ar := tensor.NewArena()
	r := rng.New(33)
	b := randMatrix(r, 40, 24)
	p := PackB(b, ar)
	if p.Bytes() != 4*40*24 {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
	p.Release()
	p2 := PackB(b, ar)
	defer p2.Release()
	st := ar.Stats()
	if st.Hits == 0 {
		t.Fatal("second pack did not reuse arena storage")
	}
}

func TestParallelMulPacked(t *testing.T) {
	r := rng.New(34)
	for _, workers := range []int{1, 2, 3, 7} {
		a := randMatrix(r, 37, 60) // prime M: ragged split across workers
		b := randMatrix(r, 60, 53)
		want := NewMatrix(37, 53)
		Naive(want, a, b)
		p := PackB(b, nil)
		got := NewMatrix(37, 53)
		ParallelMulPacked(got, a, p, workers)
		p.Release()
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("ParallelMulPacked wrong for workers=%d", workers)
		}
	}
}

func TestParallelPrimeRows(t *testing.T) {
	// Regression for the static-split tail imbalance: prime row counts must
	// divide across workers without dropping or double-computing rows, on
	// both the blocked (small) and packed (large) parallel paths.
	r := rng.New(35)
	for _, s := range []struct{ m, k, n int }{{101, 30, 40}, {37, 400, 401}} {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)
		want := NewMatrix(s.m, s.n)
		Naive(want, a, b)
		for _, workers := range []int{2, 3, 5, 8} {
			got := NewMatrix(s.m, s.n)
			Parallel(got, a, b, workers)
			if !matricesClose(got, want, 1e-3) {
				t.Fatalf("Parallel %dx%dx%d workers=%d wrong", s.m, s.k, s.n, workers)
			}
		}
	}
}

// BenchmarkGemmPackedReuse measures the packed-plan amortization: one PackB
// against the batch-sized stream of MulPacked calls that reuse it, versus
// repacking inside every call (Serial). The gap is the per-call pack cost
// the plan hoists out.
func BenchmarkGemmPackedReuse(b *testing.B) {
	r := rng.New(36)
	const m, k, n = 64, 576, 1024 // CIFAR layer-0 FP GEMM geometry
	a := randMatrix(r, m, k)
	bm := randMatrix(r, k, n)
	c := NewMatrix(m, n)
	p := PackB(bm, nil)
	defer p.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPacked(c, a, p)
	}
	b.ReportMetric(float64(Flops(m, n, k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

// BenchmarkGemmPackEveryCall is the unamortized baseline for
// BenchmarkGemmPackedReuse: identical GEMM, panels repacked per call.
func BenchmarkGemmPackEveryCall(b *testing.B) {
	r := rng.New(36)
	const m, k, n = 64, 576, 1024
	a := randMatrix(r, m, k)
	bm := randMatrix(r, k, n)
	c := NewMatrix(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackedSerial(c, a, bm)
	}
	b.ReportMetric(float64(Flops(m, n, k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}
