package spkernel

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// --- sparse-weights inference ---

func TestInferenceMatchesReference(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 12; trial++ {
		s := conv.RandSpec(r, 10)
		w := conv.RandWeights(r, s)
		w.Sparsify(r, 0.8) // pruned model
		ik := CompileWeights(s, w)
		in := conv.RandInput(r, s)
		got := conv.NewOutput(s)
		got.FillUniform(r, 5, 6) // must be overwritten
		ik.Forward(got, in)
		want := conv.NewOutput(s)
		conv.ForwardRef(s, want, in, w)
		if !tensor.AlmostEqual(got, want, 1e-4) {
			t.Fatalf("inference differs for %v (max diff %g)", s, tensor.MaxAbsDiff(got, want))
		}
	}
}

func TestInferenceAccounting(t *testing.T) {
	s := conv.Square(8, 2, 2, 2, 1)
	w := conv.NewWeights(s) // 2·2·2·2 = 16 weights
	w.Data[0] = 1
	w.Data[5] = 2
	w.Data[15] = -1
	ik := CompileWeights(s, w)
	if ik.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", ik.NNZ())
	}
	if got := ik.WeightSparsity(); got != 1-3.0/16 {
		t.Fatalf("WeightSparsity = %v", got)
	}
	if ik.Flops() != 2*3*7*7 {
		t.Fatalf("Flops = %d", ik.Flops())
	}
	if ik.Spec() != s {
		t.Fatal("Spec accessor wrong")
	}
}

func TestInferenceFullyPruned(t *testing.T) {
	s := conv.Square(6, 2, 1, 3, 1)
	ik := CompileWeights(s, conv.NewWeights(s))
	r := rng.New(5)
	out := conv.NewOutput(s)
	out.FillUniform(r, 1, 2)
	ik.Forward(out, conv.RandInput(r, s))
	if out.NNZ() != 0 {
		t.Fatal("fully-pruned weights produced non-zero output")
	}
}

func TestInferenceStrided(t *testing.T) {
	r := rng.New(6)
	s := conv.Square(15, 4, 3, 3, 2)
	w := conv.RandWeights(r, s)
	w.Sparsify(r, 0.6)
	in := conv.RandInput(r, s)
	got := conv.NewOutput(s)
	CompileWeights(s, w).Forward(got, in)
	want := conv.NewOutput(s)
	conv.ForwardRef(s, want, in, w)
	if !tensor.AlmostEqual(got, want, 1e-4) {
		t.Fatal("strided inference differs")
	}
}

func BenchmarkInferenceDenseVsSparseWeights(b *testing.B) {
	s := conv.Square(32, 32, 16, 3, 1)
	r := rng.New(1)
	w := conv.RandWeights(r, s)
	w.Sparsify(r, 0.9)
	ik := CompileWeights(s, w)
	in := conv.RandInput(r, s)
	out := conv.NewOutput(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ik.Forward(out, in)
	}
	b.ReportMetric(float64(ik.Flops())*float64(b.N)/b.Elapsed().Seconds()/1e9, "goodput-GFlops")
}
