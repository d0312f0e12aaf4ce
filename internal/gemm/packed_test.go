package gemm

import (
	"testing"
	"testing/quick"

	"spgcnn/internal/rng"
)

func TestPackedMatchesNaive(t *testing.T) {
	r := rng.New(21)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {13, 300, 9}, {64, 64, 64},
		{65, 385, 513}, {3, 9, 515}, {70, 10, 4}, {67, 401, 31},
	}
	for _, s := range shapes {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)
		want := NewMatrix(s.m, s.n)
		got := NewMatrix(s.m, s.n)
		Naive(want, a, b)
		PackedSerial(got, a, b)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("PackedSerial differs from Naive for %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestPackedAccumWithReuse(t *testing.T) {
	r := rng.New(22)
	var buf packBuf
	a := randMatrix(r, 20, 33)
	b := randMatrix(r, 33, 17)
	c := NewMatrix(20, 17)
	packedAccum(&buf, c, a, b)
	packedAccum(&buf, c, a, b) // accumulate again with reused buffers
	want := NewMatrix(20, 17)
	Naive(want, a, b)
	want.Data = append([]float32(nil), want.Data...)
	for i := range want.Data {
		want.Data[i] *= 2
	}
	if !matricesClose(c, FromSlice(want.Data, 20, 17), 1e-3) {
		t.Fatal("packedAccum did not accumulate correctly across reuses")
	}
}

func TestPackedPropertyQuick(t *testing.T) {
	r := rng.New(23)
	if err := quick.Check(func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%40)+1, int(k8%40)+1, int(n8%40)+1
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		want := NewMatrix(m, n)
		got := NewMatrix(m, n)
		Serial(want, a, b)
		PackedSerial(got, a, b)
		return matricesClose(got, want, 1e-3)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelPackedPathMatchesNaive(t *testing.T) {
	// Shapes above packedThreshold route Parallel through the per-worker
	// packed kernel; verify against Naive, including row counts that do
	// not divide evenly across workers.
	r := rng.New(24)
	for _, workers := range []int{1, 2, 3, 7} {
		a := randMatrix(r, 37, 400)
		b := randMatrix(r, 400, 401) // K*N = 160400 >= packedThreshold
		want := NewMatrix(37, 401)
		got := NewMatrix(37, 401)
		Naive(want, a, b)
		Parallel(got, a, b, workers)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("parallel packed path differs for workers=%d", workers)
		}
	}
}

func BenchmarkPackedSerial256(b *testing.B) { benchGEMM(b, 256, PackedSerial) }
func BenchmarkPackedSerial512(b *testing.B) { benchGEMM(b, 512, PackedSerial) }
func BenchmarkSerial512(b *testing.B)       { benchGEMM(b, 512, Serial) }
