package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"spgcnn/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Dims)
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

func TestIndexing3(t *testing.T) {
	x := New(2, 3, 4)
	// Row-major: last index fastest.
	x.Set3(1, 2, 3, 42)
	if x.Data[1*12+2*4+3] != 42 {
		t.Fatal("Set3 wrote to wrong flat offset")
	}
	if x.At3(1, 2, 3) != 42 {
		t.Fatal("At3 read wrong value")
	}
}

func TestIndexing4(t *testing.T) {
	x := New(2, 3, 4, 5)
	x.Set4(1, 2, 3, 4, 7)
	if x.Data[((1*3+2)*4+3)*5+4] != 7 {
		t.Fatal("Set4 wrote to wrong flat offset")
	}
	if x.At4(1, 2, 3, 4) != 7 {
		t.Fatal("At4 read wrong value")
	}
}

func TestRow3Aliases(t *testing.T) {
	x := New(2, 3, 4)
	row := x.Row3(1, 2)
	if len(row) != 4 {
		t.Fatalf("Row3 length = %d, want 4", len(row))
	}
	row[1] = 9
	if x.At3(1, 2, 1) != 9 {
		t.Fatal("Row3 does not alias tensor data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := New(3)
	x.Data[0] = 1
	c := x.Clone()
	c.Data[0] = 2
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !x.SameShape(c) {
		t.Fatal("Clone changed shape")
	}
}

func TestReshapeView(t *testing.T) {
	x := New(2, 6)
	v := x.Reshape(3, 4)
	v.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to wrong size did not panic")
		}
	}()
	x.Reshape(5)
}

func TestSparsifyAndSparsity(t *testing.T) {
	r := rng.New(1)
	x := New(100, 100)
	x.FillUniform(r, 0.5, 1.5) // strictly nonzero
	if got := x.Sparsity(); got != 0 {
		t.Fatalf("pre-sparsify sparsity = %v, want 0", got)
	}
	x.Sparsify(r, 0.85)
	s := x.Sparsity()
	if s < 0.83 || s > 0.87 {
		t.Fatalf("sparsity = %v, want ~0.85", s)
	}
	if x.NNZ() != int(float64(x.Len())*(1-s)+0.5) {
		t.Fatalf("NNZ %d inconsistent with sparsity %v", x.NNZ(), s)
	}
}

func TestSparsifyExtremes(t *testing.T) {
	r := rng.New(2)
	x := New(10)
	x.FillUniform(r, 1, 2)
	y := x.Clone()
	y.Sparsify(r, 0)
	if MaxAbsDiff(x, y) != 0 {
		t.Fatal("Sparsify(0) modified data")
	}
	y.Sparsify(r, 1)
	if y.NNZ() != 0 {
		t.Fatal("Sparsify(1) left non-zeros")
	}
}

func TestScaleAddScaled(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Scale(2)
	x.AddScaled(y, 0.1)
	want := []float32{3, 6, 9}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, x.Data[i], want[i])
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	a := FromSlice([]float32{1, 1000}, 2)
	b := FromSlice([]float32{1.0000001, 1000.001}, 2)
	if !AlmostEqual(a, b, 1e-5) {
		t.Fatal("nearly identical tensors reported unequal")
	}
	c := FromSlice([]float32{1, 1001}, 2)
	if AlmostEqual(a, c, 1e-5) {
		t.Fatal("clearly different tensors reported equal")
	}
	d := New(3)
	if AlmostEqual(a, d, 1) {
		t.Fatal("different shapes reported equal")
	}
}

// TestIdenticalComparesBits: the bit-identity pin sees the sign of zero
// and NaN payloads, which float == cannot.
func TestIdenticalComparesBits(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nanA := math.Float32frombits(0x7fc00001)
	nanB := math.Float32frombits(0x7fc00002)
	for _, tc := range []struct {
		name string
		a, b float32
		want bool
	}{
		{"equal", 1.5, 1.5, true},
		{"+0 vs -0", 0, negZero, false},
		{"-0 vs -0", negZero, negZero, true},
		{"same NaN payload", nanA, nanA, true},
		{"different NaN payloads", nanA, nanB, false},
		{"NaN vs number", nanA, 1, false},
	} {
		a, b := FromSlice([]float32{2, tc.a}, 2), FromSlice([]float32{2, tc.b}, 2)
		if got := Identical(a, b); got != tc.want {
			t.Errorf("%s: Identical = %v, want %v", tc.name, got, tc.want)
		}
	}
	if Identical(New(2), New(1, 2)) {
		t.Error("different shapes reported identical")
	}
}

func TestFillNormalStats(t *testing.T) {
	r := rng.New(5)
	x := New(100000)
	x.FillNormal(r, 2, 3)
	var sum, sumSq float64
	for _, v := range x.Data {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(x.Len())
	mean := sum / n
	stddev := sumSq/n - mean*mean
	if mean < 1.9 || mean > 2.1 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if stddev < 8.5 || stddev > 9.5 {
		t.Fatalf("variance = %v, want ~9", stddev)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 5, 3}, 3)
	if d := MaxAbsDiff(a, b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", d)
	}
}

func TestSparsityPropertyQuick(t *testing.T) {
	// For any requested sparsity, the achieved sparsity is within a few
	// points (binomial concentration) on a large tensor.
	r := rng.New(99)
	if err := quick.Check(func(p8 uint8) bool {
		p := float64(p8) / 255
		x := New(4000)
		x.FillUniform(r, 1, 2)
		x.Sparsify(r, p)
		got := x.Sparsity()
		return got >= p-0.05 && got <= p+0.05
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAddScaledMatchesScalarLoop pins AddScaled, which runs kern.Axpy, to
// the loop it replaced, t[i] += s·o[i], bit for bit over signed zeros,
// infinities, subnormals and NaNs with distinct payloads. Where two NaNs
// meet in one operation x86 returns whichever operand comes first, which
// Go leaves unspecified, so there the result need only be a NaN; a lone
// NaN's payload must come through as the loop's.
func TestAddScaledMatchesScalarLoop(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc12345),
		math.Float32frombits(0x7f800001), // signalling: quieted by the add
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	}
	nan := func(v float32) bool { return v != v }
	r := rng.New(0xADD5)
	draw := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.NormFloat64())
			if r.Intn(4) == 0 {
				v[i] = specials[r.Intn(len(specials))]
			}
		}
		return v
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1000, 102400} {
		for _, s := range append([]float32{1, -1, 0.01, float32(r.NormFloat64())}, specials...) {
			x, o := FromSlice(draw(n), n), FromSlice(draw(n), n)
			want := append([]float32(nil), x.Data...)
			for i, v := range o.Data {
				want[i] += s * v
			}
			before := append([]float32(nil), x.Data...)
			x.AddScaled(o, s)
			for i, g := range x.Data {
				w := want[i]
				if math.Float32bits(g) == math.Float32bits(w) {
					continue
				}
				p := s * o.Data[i]
				meet := (nan(s) && nan(o.Data[i])) || (nan(before[i]) && nan(p))
				if !(meet && nan(g) && nan(w)) {
					t.Fatalf("n=%d s=%v: [%d] = %#x, want %#x (t %v, o %v)", n, s, i,
						math.Float32bits(g), math.Float32bits(w), before[i], o.Data[i])
				}
			}
		}
	}
}
