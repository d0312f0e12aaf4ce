package unfold

import (
	"testing"
	"testing/quick"

	"spgcnn/internal/conv"
	"spgcnn/internal/gemm"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestDims(t *testing.T) {
	s := conv.Square(5, 2, 3, 2, 1)
	if Rows(s) != 16 {
		t.Fatalf("Rows = %d, want 16", Rows(s))
	}
	if Cols(s) != 12 {
		t.Fatalf("Cols = %d, want 12", Cols(s))
	}
}

func TestIm2colFig2b(t *testing.T) {
	// The paper's Fig. 2b example: a 3x3 image with two channels, unfolded
	// for a 2x2 kernel. Row r of U is the window of output pixel r with
	// channel 0's taps first, then channel 1's.
	s := conv.Square(3, 1, 2, 2, 1)
	in := conv.NewInput(s)
	// channel 0 = 1..9, channel 1 = 11..19 (row-major).
	for i := 0; i < 9; i++ {
		in.Data[i] = float32(1 + i)
		in.Data[9+i] = float32(11 + i)
	}
	u := NewU(s)
	Im2col(s, u, in)
	// Output pixel (0,0): window {1,2,4,5} from ch0 and {11,12,14,15} ch1.
	want0 := []float32{1, 2, 4, 5, 11, 12, 14, 15}
	for i, w := range want0 {
		if u.Row(0)[i] != w {
			t.Fatalf("U[0] = %v, want %v", u.Row(0), want0)
		}
	}
	// Output pixel (1,1) — last row: {5,6,8,9, 15,16,18,19}.
	want3 := []float32{5, 6, 8, 9, 15, 16, 18, 19}
	for i, w := range want3 {
		if u.Row(3)[i] != w {
			t.Fatalf("U[3] = %v, want %v", u.Row(3), want3)
		}
	}
}

func TestUnfoldGEMMMatchesForwardRef(t *testing.T) {
	// O = W·Uᵀ (Fig. 2c) must equal the direct convolution of Eq. 2.
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		s := conv.RandSpec(r, 10)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		u := NewU(s)
		Im2col(s, u, in)
		out := conv.NewOutput(s)
		gemm.MulTransB(OutputMatrix(s, out), WeightMatrix(s, w), u)
		want := conv.NewOutput(s)
		conv.ForwardRef(s, want, in, w)
		if !tensor.AlmostEqual(out, want, 1e-4) {
			t.Fatalf("Unfold+GEMM FP differs from reference for %v (maxdiff %g)",
				s, tensor.MaxAbsDiff(out, want))
		}
	}
}

func TestCol2imAdjointOfIm2col(t *testing.T) {
	// ⟨U, im2col(I)⟩ == ⟨col2im(U), I⟩ for random U, I: the defining
	// property that makes Unfold-based BP correct.
	if err := quick.Check(func(seed uint32) bool {
		r := rng.New(uint64(seed))
		s := conv.RandSpec(r, 8)
		in := conv.RandInput(r, s)
		u := NewU(s)
		for i := range u.Data {
			u.Data[i] = float32(r.NormFloat64())
		}
		ucopy := NewU(s)
		Im2col(s, ucopy, in)
		folded := conv.NewInput(s)
		Col2im(s, folded, u)
		var lhs, rhs float64
		for i := range u.Data {
			lhs += float64(u.Data[i]) * float64(ucopy.Data[i])
		}
		for i := range in.Data {
			rhs += float64(folded.Data[i]) * float64(in.Data[i])
		}
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		scale := lhs
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		return diff <= 1e-3*scale
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2imAccumulatesOverlaps(t *testing.T) {
	// With a 2x2 kernel, stride 1 on a 3x3 input, the center input pixel
	// belongs to all 4 windows; folding all-ones U must give it count 4.
	s := conv.Square(3, 1, 1, 2, 1)
	u := NewU(s)
	for i := range u.Data {
		u.Data[i] = 1
	}
	in := conv.NewInput(s)
	Col2im(s, in, u)
	if in.At3(0, 1, 1) != 4 {
		t.Fatalf("center fold count = %v, want 4", in.At3(0, 1, 1))
	}
	if in.At3(0, 0, 0) != 1 {
		t.Fatalf("corner fold count = %v, want 1", in.At3(0, 0, 0))
	}
	if in.At3(0, 0, 1) != 2 {
		t.Fatalf("edge fold count = %v, want 2", in.At3(0, 0, 1))
	}
}

func TestStridedIm2colSkipsPixels(t *testing.T) {
	s := conv.Square(5, 1, 1, 2, 2) // stride 2: outputs at x in {0, 2}
	in := conv.NewInput(s)
	for i := 0; i < 25; i++ {
		in.Data[i] = float32(i)
	}
	u := NewU(s)
	Im2col(s, u, in)
	if Rows(s) != 4 {
		t.Fatalf("Rows = %d, want 4", Rows(s))
	}
	// Output (0,1) covers input columns 2..3, rows 0..1: {2,3,7,8}.
	want := []float32{2, 3, 7, 8}
	for i, w := range want {
		if u.Row(1)[i] != w {
			t.Fatalf("strided U[1] = %v, want %v", u.Row(1), want)
		}
	}
}

func TestWeightMatrixAliases(t *testing.T) {
	s := conv.Square(4, 2, 3, 2, 1)
	w := conv.NewWeights(s)
	m := WeightMatrix(s, w)
	if m.Rows != 2 || m.Cols != 12 {
		t.Fatalf("weight matrix %dx%d, want 2x12", m.Rows, m.Cols)
	}
	m.Set(1, 3, 42)
	if w.Data[12+3] != 42 {
		t.Fatal("WeightMatrix does not alias weight tensor")
	}
}

func TestUnfoldSizeMatchesSpec(t *testing.T) {
	r := rng.New(9)
	for i := 0; i < 10; i++ {
		s := conv.RandSpec(r, 12)
		if int64(Rows(s))*int64(Cols(s)) != s.UnfoldedSize() {
			t.Fatalf("U size %d disagrees with Spec.UnfoldedSize %d for %v",
				Rows(s)*Cols(s), s.UnfoldedSize(), s)
		}
	}
}

func BenchmarkIm2colCIFARL1(b *testing.B) {
	s := conv.Square(36, 64, 3, 5, 1)
	r := rng.New(1)
	in := conv.RandInput(r, s)
	u := NewU(s)
	b.SetBytes(int64(Rows(s)*Cols(s)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2col(s, u, in)
	}
}
