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
	a := randMatrix(r, 20, 33)
	b := randMatrix(r, 33, 17)
	c := NewMatrix(20, 17)
	SerialAccum(c, a, b)
	SerialAccum(c, a, b) // accumulate again on a recycled pack buffer
	want := NewMatrix(20, 17)
	Naive(want, a, b)
	for i := range want.Data {
		want.Data[i] *= 2
	}
	if !matricesClose(c, want, 1e-3) {
		t.Fatal("SerialAccum did not accumulate correctly across buffer reuses")
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
	// Every worker reads the one shared pack; verify against Naive,
	// including row counts that do not divide evenly across workers.
	r := rng.New(24)
	for _, workers := range []int{1, 2, 3, 7} {
		a := randMatrix(r, 37, 400)
		b := randMatrix(r, 400, 401)
		want := NewMatrix(37, 401)
		got := NewMatrix(37, 401)
		Naive(want, a, b)
		Parallel(got, a, b, workers)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("parallel packed path differs for workers=%d", workers)
		}
	}
}

func TestParallelPrimeRows(t *testing.T) {
	// Prime row counts must divide across workers without dropping or
	// double-computing rows.
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

func TestEveryEntryPointBitIdenticalToNaive(t *testing.T) {
	// One kernel path, one k-ordered accumulator per element: Serial,
	// SerialAccum from zero, Parallel and MulTransB must all reproduce
	// Naive bit for bit on finite operands, at every shape and K depth.
	r := rng.New(25)
	for _, s := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 9, 5}, {9, 33, 17}, {13, 300, 9}, {64, 576, 128}, {5, 100, 1}, {37, 1024, 147},
	} {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)
		want := NewMatrix(s.m, s.n)
		Naive(want, a, b)
		got := map[string]*Matrix{}
		for _, name := range []string{"Serial", "SerialAccum", "Parallel", "MulTransB"} {
			got[name] = NewMatrix(s.m, s.n)
		}
		Serial(got["Serial"], a, b)
		SerialAccum(got["SerialAccum"], a, b)
		Parallel(got["Parallel"], a, b, 3)
		MulTransB(got["MulTransB"], a, b.Transpose())
		for name, g := range got {
			for i := range want.Data {
				if g.Data[i] != want.Data[i] {
					t.Fatalf("%s %dx%dx%d: element %d = %v, Naive %v", name, s.m, s.k, s.n, i, g.Data[i], want.Data[i])
				}
			}
		}
	}
}

func BenchmarkSerial512(b *testing.B) { benchGEMM(b, 512, Serial) }
