package unfoldgemm

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestPackedConformanceSerial(t *testing.T) {
	enginetest.Run(t, PackedGenerator(1), enginetest.Options{Seed: 41})
}

func TestPackedConformanceParallel4(t *testing.T) {
	enginetest.Run(t, PackedGenerator(4), enginetest.Options{Seed: 42})
}

func TestPackedDifferentialVsSerial(t *testing.T) {
	// The serial prepacked engine against the implicit unfold under the
	// full ULP-budget sparsity sweep.
	enginetest.RunDifferential(t, PackedGenerator(1), Generator(1),
		enginetest.DiffOptions{Seed: 0xD1F4})
}

func TestPackedDifferentialForcedPackedPath(t *testing.T) {
	// The fanned-out prepacked engine against the serial implicit unfold:
	// both always run the packed-panel micro-kernels, so even the small
	// odd/strided geometries exercise prepack-and-reuse against per-call
	// packing across every remainder path.
	enginetest.RunDifferential(t, PackedGenerator(4), Generator(1),
		enginetest.DiffOptions{Seed: 0xD1F5})
}

func TestPackedNames(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	if got := NewPacked(s, 1).Name(); got != "unfold-packed-gemm(serial)" {
		t.Fatalf("serial name = %q", got)
	}
	if got := NewPacked(s, 8).Name(); got != "unfold-packed-gemm(p=8)" {
		t.Fatalf("parallel name = %q", got)
	}
	if PackedGenerator(1).Name != "unfold-packed-gemm" {
		t.Fatal("generator name wrong")
	}
}

func TestPackedWeightCacheVersioning(t *testing.T) {
	s := conv.Square(12, 6, 3, 3, 1)
	r := rng.New(7)
	c := exec.New(1)
	k := NewPacked(s, 1)
	base := New(s, 1)

	w := conv.RandWeights(r, s)
	w.Bump() // tracked: Ver = 1
	batch := 3
	var ins, outs, want []*tensor.Tensor
	for i := 0; i < batch; i++ {
		ins = append(ins, conv.RandInput(r, s))
		outs = append(outs, conv.NewOutput(s))
		want = append(want, conv.NewOutput(s))
	}

	spanHit := "pack/" + s.String() + "/hit"
	spanMiss := "pack/" + s.String() + "/miss"

	k.ForwardBatch(c, outs, ins, w)
	if st, _ := c.Probe().SpanStats(spanMiss); st.Calls != 1 {
		t.Fatalf("first call: miss calls = %d, want 1", st.Calls)
	}
	k.ForwardBatch(c, outs, ins, w)
	if st, _ := c.Probe().SpanStats(spanHit); st.Calls != 1 {
		t.Fatalf("second call: hit calls = %d, want 1", st.Calls)
	}

	// Mutate the weights (optimizer step) and bump: cache must invalidate
	// and the new pack must produce the new weights' output.
	for i := range w.Data {
		w.Data[i] *= 1.5
	}
	w.Bump()
	k.ForwardBatch(c, outs, ins, w)
	if st, _ := c.Probe().SpanStats(spanMiss); st.Calls != 2 {
		t.Fatalf("after Bump: miss calls = %d, want 2", st.Calls)
	}
	base.ForwardBatch(c, want, ins, w)
	for i := range outs {
		if !tensor.AlmostEqual(outs[i], want[i], 1e-4) {
			t.Fatal("stale pack survived a weight version bump")
		}
	}

	// Untracked weights (Ver == 0) must repack every call.
	w2 := conv.RandWeights(r, s)
	k.ForwardBatch(c, outs, ins, w2)
	k.ForwardBatch(c, outs, ins, w2)
	if st, _ := c.Probe().SpanStats(spanMiss); st.Calls != 4 {
		t.Fatalf("untracked weights: miss calls = %d, want 4", st.Calls)
	}
}

func TestPackedSingleAgreesWithBase(t *testing.T) {
	r := rng.New(11)
	c := exec.New(1)
	for trial := 0; trial < 8; trial++ {
		s := conv.RandSpec(r, 10)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		eo := conv.RandOutputError(r, s, 0.5)

		base, packed := New(s, 1), NewPacked(s, 1)

		o1, o2 := conv.NewOutput(s), conv.NewOutput(s)
		base.ForwardBatch(c, []*tensor.Tensor{o1}, []*tensor.Tensor{in}, w)
		packed.ForwardBatch(c, []*tensor.Tensor{o2}, []*tensor.Tensor{in}, w)
		if !tensor.AlmostEqual(o1, o2, 1e-4) {
			t.Fatalf("FP base/packed disagree for %v", s)
		}

		e1, e2 := conv.NewInput(s), conv.NewInput(s)
		base.BackwardInputBatch(c, []*tensor.Tensor{e1}, []*tensor.Tensor{eo}, w)
		packed.BackwardInputBatch(c, []*tensor.Tensor{e2}, []*tensor.Tensor{eo}, w)
		if !tensor.AlmostEqual(e1, e2, 1e-4) {
			t.Fatalf("BP-EI base/packed disagree for %v", s)
		}

		d1, d2 := conv.NewWeights(s), conv.NewWeights(s)
		base.BackwardWeightsBatch(c, d1, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
		packed.BackwardWeightsBatch(c, d2, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
		if !tensor.AlmostEqual(d1, d2, 1e-4) {
			t.Fatalf("BP-dW base/packed disagree for %v", s)
		}
	}
}

func BenchmarkForwardCIFARL0Packed(b *testing.B) {
	s := conv.Square(36, 64, 3, 5, 1)
	r := rng.New(1)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Bump()
	outs, ins := []*tensor.Tensor{conv.NewOutput(s)}, []*tensor.Tensor{in}
	k := NewPacked(s, 1)
	c := exec.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
	b.ReportMetric(float64(s.FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}
