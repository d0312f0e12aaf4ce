package conv

import (
	"math"
	"testing"
	"testing/quick"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// RandSpec draws a small random valid spec; it is exported to sibling
// engine test packages via the export_test pattern below.
func randSpec(r *rng.RNG) Spec {
	for {
		s := Spec{
			Nx: r.Intn(14) + 2,
			Ny: r.Intn(14) + 2,
			Nc: r.Intn(5) + 1,
			Nf: r.Intn(6) + 1,
			Fx: r.Intn(4) + 1,
			Fy: r.Intn(4) + 1,
			Sx: r.Intn(3) + 1,
			Sy: r.Intn(3) + 1,
		}
		if s.Validate() == nil {
			return s
		}
	}
}

func randTensors(r *rng.RNG, s Spec) (in, w *tensor.Tensor) {
	in = NewInput(s)
	in.FillNormal(r, 0, 1)
	w = NewWeights(s)
	w.FillNormal(r, 0, 0.5)
	return
}

func TestSpecGeometry(t *testing.T) {
	// Paper Table 1 row ID 0: 32,32,32,4 (N, Nf, Nc, F) with stride 1.
	s := Square(32, 32, 32, 4, 1)
	if s.OutX() != 29 || s.OutY() != 29 {
		t.Fatalf("OutX/Y = %d/%d, want 29/29", s.OutX(), s.OutY())
	}
	if s.InputSize() != 32*32*32 {
		t.Fatalf("InputSize = %d", s.InputSize())
	}
	if s.WeightSize() != 32*32*4*4 {
		t.Fatalf("WeightSize = %d", s.WeightSize())
	}
	if s.OutputSize() != 32*29*29 {
		t.Fatalf("OutputSize = %d", s.OutputSize())
	}
	if s.UnfoldedSize() != 29*29*32*16 {
		t.Fatalf("UnfoldedSize = %d", s.UnfoldedSize())
	}
	if s.FlopsFP() != 2*32*29*29*32*16 {
		t.Fatalf("FlopsFP = %d", s.FlopsFP())
	}
}

func TestSpecStride(t *testing.T) {
	// AlexNet layer 0: 224,96,3,11 stride 4 -> out (224-11)/4+1 = 54.
	s := Square(224, 96, 3, 11, 4)
	if s.OutX() != 54 {
		t.Fatalf("OutX = %d, want 54", s.OutX())
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Nx: 8, Ny: 8, Nc: 1, Nf: 1, Fx: 9, Fy: 3, Sx: 1, Sy: 1},
		{Nx: 8, Ny: 8, Nc: 0, Nf: 1, Fx: 3, Fy: 3, Sx: 1, Sy: 1},
		{Nx: 8, Ny: 8, Nc: 1, Nf: 1, Fx: 3, Fy: 3, Sx: 0, Sy: 1},
		{Nx: -1, Ny: 8, Nc: 1, Nf: 1, Fx: 3, Fy: 3, Sx: 1, Sy: 1},
		// (Fx−1)·Dx wraps to 0 in int: the extent check must not overflow.
		{Nx: 8, Ny: 8, Nc: 1, Nf: 1, Fx: 1<<62 + 1, Fy: 1, Sx: 1, Sy: 1, Dx: 4},
		{Nx: 8, Ny: 8, Nc: 1, Nf: 1, Fx: 1, Fy: 1<<61 + 1, Sx: 1, Sy: 1, Dy: 8},
		// Nx + 2·Px past math.MaxInt wraps negative.
		{Nx: 8, Ny: 8, Nc: 1, Nf: 1, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: math.MaxInt / 2},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("spec %d (%+v) should be invalid", i, s)
		}
	}
	if err := Square(8, 4, 2, 3, 2).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecString(t *testing.T) {
	if got := Square(36, 64, 3, 5, 1).String(); got != "36,64,3,5,1" {
		t.Fatalf("String = %q", got)
	}
	s := Spec{Nx: 8, Ny: 6, Nc: 1, Nf: 2, Fx: 3, Fy: 2, Sx: 1, Sy: 1}
	if got := s.String(); got == "" {
		t.Fatal("non-square String empty")
	}
}

func TestForwardRefHandComputed(t *testing.T) {
	// 1 channel, 1 feature, 2x2 kernel of ones over a 3x3 ramp: each
	// output is the sum of a 2x2 window.
	s := Square(3, 1, 1, 2, 1)
	in := NewInput(s)
	for i := 0; i < 9; i++ {
		in.Data[i] = float32(i) // 0..8 row-major
	}
	w := NewWeights(s)
	for i := range w.Data {
		w.Data[i] = 1
	}
	out := NewOutput(s)
	ForwardRef(s, out, in, w)
	// windows: (0+1+3+4)=8, (1+2+4+5)=12, (3+4+6+7)=20, (4+5+7+8)=24
	want := []float32{8, 12, 20, 24}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestForwardRefMultiChannelFig2a(t *testing.T) {
	// Mirrors the structure of the paper's Fig. 2a: 3x3 input, 2 channels,
	// 2 features, 2x2 kernels. Feature output must be the sum over both
	// channels' inner products.
	s := Square(3, 2, 2, 2, 1)
	r := rng.New(42)
	in, w := randTensors(r, s)
	out := NewOutput(s)
	ForwardRef(s, out, in, w)
	// Independently compute output (f=1, y=0, x=1).
	var want float32
	for c := 0; c < 2; c++ {
		for ky := 0; ky < 2; ky++ {
			for kx := 0; kx < 2; kx++ {
				want += in.At3(c, ky, 1+kx) * w.At4(1, c, ky, kx)
			}
		}
	}
	if got := out.At3(1, 0, 1); got != want {
		t.Fatalf("out(1,0,1) = %v, want %v", got, want)
	}
}

func TestBackwardInputScatterMatchesGather(t *testing.T) {
	// The scatter form (adjoint of Eq. 2) and the paper's literal gather
	// form of Eq. 3 must agree, including for strided convolutions.
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		s := randSpec(r)
		_, w := randTensors(r, s)
		eo := NewOutput(s)
		eo.FillNormal(r, 0, 1)
		a := NewInput(s)
		b := NewInput(s)
		BackwardInputRef(s, a, eo, w)
		BackwardInputGatherRef(s, b, eo, w)
		if !tensor.AlmostEqual(a, b, 1e-4) {
			t.Fatalf("scatter/gather disagree for spec %v (max diff %g)", s, tensor.MaxAbsDiff(a, b))
		}
	}
}

func TestBackwardWeightsHandComputed(t *testing.T) {
	// Single output pixel: dW must equal EO[0,0,0] * input window.
	s := Square(2, 1, 1, 2, 1)
	in := NewInput(s)
	copy(in.Data, []float32{1, 2, 3, 4})
	eo := NewOutput(s)
	eo.Data[0] = 2
	dw := NewWeights(s)
	BackwardWeightsRef(s, dw, eo, in)
	want := []float32{2, 4, 6, 8}
	for i := range want {
		if dw.Data[i] != want[i] {
			t.Fatalf("dW[%d] = %v, want %v", i, dw.Data[i], want[i])
		}
	}
}

// TestAdjointProperty verifies the fundamental transpose identity tying
// Eq. 2 to Eq. 3: for any EO and I, ⟨EO, Forward(I)⟩ = ⟨BackwardInput(EO), I⟩.
// This is the property-based check that the two reference kernels are true
// adjoints, which any correct FP/BP pair must satisfy.
func TestAdjointProperty(t *testing.T) {
	r := rng.New(11)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		s := randSpec(rr)
		in, w := randTensors(rr, s)
		eo := NewOutput(s)
		eo.FillNormal(rr, 0, 1)
		out := NewOutput(s)
		ForwardRef(s, out, in, w)
		ei := NewInput(s)
		BackwardInputRef(s, ei, eo, w)
		var lhs, rhs float64
		for i := range out.Data {
			lhs += float64(eo.Data[i]) * float64(out.Data[i])
		}
		for i := range in.Data {
			rhs += float64(ei.Data[i]) * float64(in.Data[i])
		}
		diff := lhs - rhs
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if l := lhs; l < 0 {
			l = -l
			if l > scale {
				scale = l
			}
		} else if l > scale {
			scale = l
		}
		return diff <= 1e-3*scale
	}, &quick.Config{MaxCount: 30, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

// TestWeightGradientProperty: ⟨EO, Forward(I)⟩ = ⟨dW(EO, I), W⟩ where the
// forward used weights W — the same adjointness in the weight slot.
func TestWeightGradientProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ 0xdead)
		s := randSpec(rr)
		in, w := randTensors(rr, s)
		eo := NewOutput(s)
		eo.FillNormal(rr, 0, 1)
		out := NewOutput(s)
		ForwardRef(s, out, in, w)
		dw := NewWeights(s)
		BackwardWeightsRef(s, dw, eo, in)
		var lhs, rhs float64
		for i := range out.Data {
			lhs += float64(eo.Data[i]) * float64(out.Data[i])
		}
		for i := range w.Data {
			rhs += float64(dw.Data[i]) * float64(w.Data[i])
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

func TestShapeChecksPanic(t *testing.T) {
	s := Square(4, 2, 1, 2, 1)
	in, w := NewInput(s), NewWeights(s)
	badOut := tensor.New(2, 2, 2) // wrong: should be [2][3][3]
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardRef with wrong output shape did not panic")
		}
	}()
	ForwardRef(s, badOut, in, w)
}

func BenchmarkForwardRefCIFARL1(b *testing.B) {
	s := Square(36, 64, 3, 5, 1)
	r := rng.New(1)
	in, w := randTensors(r, s)
	out := NewOutput(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardRef(s, out, in, w)
	}
	b.ReportMetric(float64(s.FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}
