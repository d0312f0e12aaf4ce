package gemm

import (
	"math"
	"testing"
	"testing/quick"

	"spgcnn/internal/rng"
)

func randMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	return m
}

func matricesClose(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		d := math.Abs(x - y)
		if d > tol && d > tol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

func TestNaiveKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := NewMatrix(2, 2)
	Naive(c, a, b)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("C[%d] = %v, want %v", i, c.Data[i], want[i])
		}
	}
}

func TestNaiveIdentity(t *testing.T) {
	r := rng.New(1)
	a := randMatrix(r, 7, 7)
	id := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	c := NewMatrix(7, 7)
	Naive(c, a, id)
	if !matricesClose(c, a, 0) {
		t.Fatal("A·I != A")
	}
}

func TestSerialMatchesNaive(t *testing.T) {
	r := rng.New(2)
	// Shapes chosen to hit the 4-row block plus all remainder paths: M%4,
	// N%8 (a zero-padded final panel), long K, and fewer rows than one
	// 4-row block.
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {16, 16, 16}, {13, 300, 9},
		{64, 64, 64}, {65, 257, 31}, {3, 9, 513}, {70, 10, 4},
	}
	for _, s := range shapes {
		a := randMatrix(r, s.m, s.k)
		b := randMatrix(r, s.k, s.n)
		want := NewMatrix(s.m, s.n)
		got := NewMatrix(s.m, s.n)
		Naive(want, a, b)
		Serial(got, a, b)
		if !matricesClose(got, want, 1e-4) {
			t.Fatalf("Serial differs from Naive for %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestSerialOverwrites(t *testing.T) {
	r := rng.New(3)
	a := randMatrix(r, 5, 5)
	b := randMatrix(r, 5, 5)
	c := randMatrix(r, 5, 5) // garbage in C
	want := NewMatrix(5, 5)
	Naive(want, a, b)
	Serial(c, a, b)
	if !matricesClose(c, want, 1e-4) {
		t.Fatal("Serial did not overwrite pre-existing C contents")
	}
}

func TestSerialAccumAccumulates(t *testing.T) {
	r := rng.New(4)
	a := randMatrix(r, 6, 6)
	b := randMatrix(r, 6, 6)
	c := NewMatrix(6, 6)
	Serial(c, a, b)
	doubled := c.Clone()
	SerialAccum(doubled, a, b)
	want := c.Clone()
	want.Zero()
	for i := range want.Data {
		want.Data[i] = 2 * c.Data[i]
	}
	if !matricesClose(doubled, want, 1e-4) {
		t.Fatal("SerialAccum did not accumulate C += A·B")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rng.New(5)
	for _, workers := range []int{1, 2, 3, 4, 16} {
		for _, s := range []struct{ m, k, n int }{{1, 5, 5}, {17, 33, 29}, {64, 16, 48}} {
			a := randMatrix(r, s.m, s.k)
			b := randMatrix(r, s.k, s.n)
			want := NewMatrix(s.m, s.n)
			got := NewMatrix(s.m, s.n)
			Serial(want, a, b)
			Parallel(got, a, b, workers)
			if !matricesClose(got, want, 1e-4) {
				t.Fatalf("Parallel(workers=%d) differs for %dx%dx%d", workers, s.m, s.k, s.n)
			}
		}
	}
}

func TestMulTransB(t *testing.T) {
	r := rng.New(8)
	a := randMatrix(r, 7, 5)
	b := randMatrix(r, 9, 5) // B is 9x5, B^T is 5x9
	got := NewMatrix(7, 9)
	MulTransB(got, a, b)
	want := NewMatrix(7, 9)
	Naive(want, a, b.Transpose())
	if !matricesClose(got, want, 1e-4) {
		t.Fatal("MulTransB differs from explicit transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(9)
	a := randMatrix(r, 5, 9)
	if !matricesClose(a.Transpose().Transpose(), a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched multiply did not panic")
		}
	}()
	Serial(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestFlops(t *testing.T) {
	if Flops(2, 3, 4) != 48 {
		t.Fatalf("Flops(2,3,4) = %d, want 48", Flops(2, 3, 4))
	}
	// Large dims must not overflow 32 bits.
	if Flops(4096, 4096, 4096) != 2*4096*4096*4096 {
		t.Fatal("Flops overflowed")
	}
}

func TestSerialPropertyQuick(t *testing.T) {
	// Property: Serial agrees with Naive for arbitrary small shapes.
	r := rng.New(10)
	if err := quick.Check(func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%24)+1, int(k8%24)+1, int(n8%24)+1
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		want := NewMatrix(m, n)
		got := NewMatrix(m, n)
		Naive(want, a, b)
		Serial(got, a, b)
		return matricesClose(got, want, 1e-4)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	// Property: A·(B1 + B2) == A·B1 + A·B2.
	r := rng.New(11)
	if err := quick.Check(func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%16)+1, int(k8%16)+1, int(n8%16)+1
		a := randMatrix(r, m, k)
		b1 := randMatrix(r, k, n)
		b2 := randMatrix(r, k, n)
		sum := NewMatrix(k, n)
		for i := range sum.Data {
			sum.Data[i] = b1.Data[i] + b2.Data[i]
		}
		left := NewMatrix(m, n)
		Serial(left, a, sum)
		right := NewMatrix(m, n)
		Serial(right, a, b1)
		SerialAccum(right, a, b2)
		return matricesClose(left, right, 1e-3)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func benchGEMM(b *testing.B, n int, fn func(c, x, y *Matrix)) {
	r := rng.New(1)
	x := randMatrix(r, n, n)
	y := randMatrix(r, n, n)
	c := NewMatrix(n, n)
	b.SetBytes(int64(3 * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(c, x, y)
	}
	b.ReportMetric(float64(Flops(n, n, n))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

func BenchmarkNaive128(b *testing.B)  { benchGEMM(b, 128, Naive) }
func BenchmarkSerial128(b *testing.B) { benchGEMM(b, 128, Serial) }
func BenchmarkSerial256(b *testing.B) { benchGEMM(b, 256, Serial) }
func BenchmarkParallel256(b *testing.B) {
	benchGEMM(b, 256, func(c, x, y *Matrix) { Parallel(c, x, y, 4) })
}
