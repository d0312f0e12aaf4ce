package gemm

import (
	"testing"

	"spgcnn/internal/rng"
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

		p := PackB(b)
		if p.Bytes() != 4*s.k*padUp(s.n) {
			t.Fatalf("Bytes = %d for a %dx%d operand", p.Bytes(), s.k, s.n)
		}
		got := NewMatrix(s.m, s.n)
		MulPacked(got, a, p)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("MulPacked differs from Naive for %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestPackBTransMatchesMulTransB(t *testing.T) {
	// The prepacked path must be BIT-identical to MulTransB and to the
	// naive triple loop: all keep one k-ordered accumulator per element.
	r := rng.New(32)
	for _, s := range []struct{ m, k, n int }{{9, 33, 17}, {64, 576, 128}, {5, 100, 1}} {
		a := randMatrix(r, s.m, s.k)
		src := randMatrix(r, s.n, s.k) // C = A·srcᵀ
		want, naive := NewMatrix(s.m, s.n), NewMatrix(s.m, s.n)
		MulTransB(want, a, src)
		Naive(naive, a, src.Transpose())

		p := PackBTrans(src)
		got := NewMatrix(s.m, s.n)
		MulPacked(got, a, p)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] || naive.Data[i] != got.Data[i] {
				t.Fatalf("packed path not bit-identical at %d: %v, MulTransB %v, naive %v",
					i, got.Data[i], want.Data[i], naive.Data[i])
			}
		}
	}
}

func TestParallelMulPacked(t *testing.T) {
	r := rng.New(34)
	for _, workers := range []int{1, 2, 3, 7} {
		a := randMatrix(r, 37, 60) // prime M: ragged split across workers
		b := randMatrix(r, 60, 53)
		want := NewMatrix(37, 53)
		Naive(want, a, b)
		p := PackB(b)
		got := NewMatrix(37, 53)
		ParallelMulPacked(got, a, p, workers)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("ParallelMulPacked wrong for workers=%d", workers)
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
	p := PackB(bm)
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
