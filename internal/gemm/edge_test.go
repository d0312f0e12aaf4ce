package gemm

import (
	"testing"

	"spgcnn/internal/rng"
)

// Edge-case coverage: degenerate shapes every kernel must survive.

func TestEmptyMatrices(t *testing.T) {
	// M = 0: no output rows.
	c := NewMatrix(0, 5)
	a := NewMatrix(0, 3)
	b := NewMatrix(3, 5)
	Serial(c, a, b)
	Parallel(c, a, b, 4)
	PackedSerial(c, a, b)
	// N = 0: no output columns.
	c2 := NewMatrix(4, 0)
	a2 := NewMatrix(4, 3)
	b2 := NewMatrix(3, 0)
	Serial(c2, a2, b2)
	// A·Bᵀ with A 4x3 and B 0x3 -> C 4x0.
	MulTransB(c2, a2, NewMatrix(0, 3))
}

func TestKZero(t *testing.T) {
	// K = 0: the product is all zeros.
	r := rng.New(1)
	c := randMatrix(r, 3, 4)
	a := NewMatrix(3, 0)
	b := NewMatrix(0, 4)
	Serial(c, a, b)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("K=0 product not zero")
		}
	}
}

func TestSingleElement(t *testing.T) {
	a := FromSlice([]float32{3}, 1, 1)
	b := FromSlice([]float32{4}, 1, 1)
	c := NewMatrix(1, 1)
	for _, fn := range []func(c, a, b *Matrix){Serial, Naive, PackedSerial,
		func(c, a, b *Matrix) { Parallel(c, a, b, 8) }} {
		c.Zero()
		fn(c, a, b)
		if c.Data[0] != 12 {
			t.Fatalf("1x1 product = %v", c.Data[0])
		}
	}
}

func TestVectorShapes(t *testing.T) {
	// Row vector × matrix, matrix × column vector.
	r := rng.New(2)
	a := randMatrix(r, 1, 9)
	b := randMatrix(r, 9, 7)
	want := NewMatrix(1, 7)
	got := NewMatrix(1, 7)
	Naive(want, a, b)
	Serial(got, a, b)
	if !matricesClose(got, want, 1e-4) {
		t.Fatal("row-vector multiply wrong")
	}
	a2 := randMatrix(r, 7, 9)
	b2 := randMatrix(r, 9, 1)
	want2 := NewMatrix(7, 1)
	got2 := NewMatrix(7, 1)
	Naive(want2, a2, b2)
	Serial(got2, a2, b2)
	if !matricesClose(got2, want2, 1e-4) {
		t.Fatal("column-vector multiply wrong")
	}
}

func TestNegativeDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims accepted")
		}
	}()
	NewMatrix(-1, 2)
}

func TestPackedAtThreshold(t *testing.T) {
	// M = 9 leaves a one-row tail after two 4-row blocks; N = 499 and 501
	// end on either side of an 8-wide panel edge; K = 1024 is a long
	// single-accumulator dot. Each must agree with Naive.
	r := rng.New(3)
	for _, kn := range []struct{ k, n int }{{300, 499}, {300, 501}, {1024, 147}} {
		a := randMatrix(r, 9, kn.k)
		b := randMatrix(r, kn.k, kn.n)
		want := NewMatrix(9, kn.n)
		got := NewMatrix(9, kn.n)
		Naive(want, a, b)
		Serial(got, a, b)
		if !matricesClose(got, want, 1e-3) {
			t.Fatalf("shape 9x%dx%d wrong", kn.k, kn.n)
		}
	}
}
