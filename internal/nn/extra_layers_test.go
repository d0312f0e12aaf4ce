package nn

import (
	"math"
	"testing"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestAvgPoolForward(t *testing.T) {
	l := NewAvgPool("avg", []int{1, 4, 4}, 2, 2, 1)
	in := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := tensor.New(1, 2, 2)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("avg out = %v, want %v", out.Data, want)
		}
	}
}

func TestAvgPoolBackwardDistributes(t *testing.T) {
	l := NewAvgPool("avg", []int{1, 4, 4}, 2, 2, 1)
	in := tensor.New(1, 4, 4)
	out := tensor.New(1, 2, 2)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	eo := tensor.FromSlice([]float32{4, 0, 0, 8}, 1, 2, 2)
	ei := tensor.New(1, 4, 4)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
	// Each window element gets g/4.
	if ei.At3(0, 0, 0) != 1 || ei.At3(0, 1, 1) != 1 {
		t.Fatalf("top-left window grads wrong: %v", ei.Data)
	}
	if ei.At3(0, 2, 2) != 2 || ei.At3(0, 3, 3) != 2 {
		t.Fatalf("bottom-right window grads wrong: %v", ei.Data)
	}
	if ei.At3(0, 0, 2) != 0 {
		t.Fatal("zero-gradient window leaked")
	}
}

// TestAvgPoolAdjoint: ⟨eo, fwd(x)⟩ == ⟨bwd(eo), x⟩.
func TestAvgPoolAdjoint(t *testing.T) {
	r := rng.New(1)
	l := NewAvgPool("avg", []int{2, 5, 7}, 2, 1, 2)
	in := tensor.New(2, 5, 7)
	in.FillNormal(r, 0, 1)
	out := tensor.New(l.OutDims()...)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	eo := tensor.New(l.OutDims()...)
	eo.FillNormal(r, 0, 1)
	ei := tensor.New(2, 5, 7)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
	var lhs, rhs float64
	for i := range eo.Data {
		lhs += float64(eo.Data[i]) * float64(out.Data[i])
	}
	for i := range in.Data {
		rhs += float64(ei.Data[i]) * float64(in.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("avg pool not adjoint: %v vs %v", lhs, rhs)
	}
}

func TestDropoutTraining(t *testing.T) {
	r := rng.New(2)
	l := NewDropout("drop", []int{10000}, 0.3, 1, r)
	in := tensor.New(10000)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := tensor.New(10000)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	zeros := 0
	var sum float64
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else {
			sum += float64(v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("dropout zeroed %.2f, want ~0.30", frac)
	}
	// Inverted dropout preserves the expectation: sum ≈ 10000.
	if sum < 9500 || sum > 10500 {
		t.Fatalf("survivor sum = %v, want ~10000", sum)
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	r := rng.New(3)
	l := NewDropout("drop", []int{1000}, 0.5, 1, r)
	in := tensor.New(1000)
	in.FillUniform(r, 1, 2)
	out := tensor.New(1000)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	eo := tensor.New(1000)
	for i := range eo.Data {
		eo.Data[i] = 1
	}
	ei := tensor.New(1000)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
	for i := range ei.Data {
		fwdDropped := out.Data[i] == 0
		bwdDropped := ei.Data[i] == 0
		if fwdDropped != bwdDropped {
			t.Fatalf("mask mismatch at %d", i)
		}
		if !bwdDropped && ei.Data[i] != 2 {
			t.Fatalf("surviving gradient = %v, want 2 (1/(1-rate))", ei.Data[i])
		}
	}
	// Dropout-induced gradient sparsity — fodder for the Sparse-Kernel.
	if s := ei.Sparsity(); s < 0.4 || s > 0.6 {
		t.Fatalf("gradient sparsity %v, want ~0.5", s)
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	r := rng.New(4)
	l := NewDropout("drop", []int{64}, 0.9, 1, r)
	l.SetTraining(false)
	in := tensor.New(64)
	in.FillNormal(r, 0, 1)
	out := tensor.New(64)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	if tensor.MaxAbsDiff(in, out) != 0 {
		t.Fatal("inference dropout is not identity")
	}
	ei := tensor.New(64)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{out}, []*tensor.Tensor{in})
	if tensor.MaxAbsDiff(ei, out) != 0 {
		t.Fatal("inference dropout backward is not identity")
	}
}

func TestDropoutRateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1.0 accepted")
		}
	}()
	NewDropout("d", []int{4}, 1.0, 1, rng.New(1))
}

func TestAvgPoolWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized window accepted")
		}
	}()
	NewAvgPool("a", []int{1, 4, 4}, 5, 1, 1)
}
