package batchpar

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/spkernel"
	"spgcnn/internal/stencil"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

func TestDifferentialVsUnfoldGEMM(t *testing.T) {
	gen := engine.Generator{
		Name: "batchpar(unfold-gemm)",
		New:  func(s conv.Spec) engine.Kernel { return New(unfoldgemm.Generator(1), s) },
	}
	enginetest.RunDifferential(t, gen, unfoldgemm.Generator(1), enginetest.DiffOptions{Seed: 0xD1F3, Batch: 4})
}

// fusedSparse is the batch-parallel sparse strategy as core deploys it: the
// executor plus its fused backward entry, so the differential sweep drives
// both seams.
func fusedSparse(s conv.Spec) engine.Kernel {
	e := New(spkernel.Generator(), s)
	return struct {
		*Executor
		engine.FusedBackward
	}{e, e.Fused()}
}

func TestDifferentialSparseAcrossWorkers(t *testing.T) {
	// Batch 5 over 1, 2 and 3 workers: one chunk, uneven chunks, and chunks
	// of one or two samples, at the sparsities the planner deploys sparse
	// BP for plus dense and an all-zero gradient.
	gen := engine.Generator{Name: "batchpar(sparse)", New: fusedSparse, Supports: engine.PlainOnly}
	for _, workers := range []int{1, 2, 3} {
		enginetest.RunDifferential(t, gen, unfoldgemm.Generator(1), enginetest.DiffOptions{
			Seed: 0xD1F6, Batch: 5, Workers: workers, Trials: 6,
			Sparsities: []float64{0, 0.5, 0.75, 0.94, 0.99, 1},
		})
	}
}

func TestFusedKeepsReductionOrder(t *testing.T) {
	// The fused fan-out uses BackwardWeightsBatch's static partition, so its
	// dW is bit-identical to the two-call path at every worker count, and
	// its EI to the dynamically chunked BackwardInputBatch.
	r := rng.New(11)
	s := conv.Square(12, 6, 3, 3, 1)
	w := conv.RandWeights(r, s)
	ins, _, eos, eis := makeBatch(r, s, 7, 0.8)
	e := New(spkernel.Generator(), s)
	for _, workers := range []int{1, 2, 3, 4, 9} {
		c := exec.New(workers)
		wantDW := conv.NewWeights(s)
		e.BackwardInputBatch(c, eis, eos, w)
		e.BackwardWeightsBatch(c, wantDW, eos, ins)
		var wantEIs []*tensor.Tensor
		for _, ei := range eis {
			wantEIs = append(wantEIs, ei.Clone())
			ei.FillUniform(r, 5, 6)
		}
		gotDW := conv.NewWeights(s)
		e.Fused().BackwardBatch(c, eis, gotDW, eos, ins, w)
		if !tensor.Identical(gotDW, wantDW) {
			t.Fatalf("workers=%d: fused dW not bit-identical to BackwardWeightsBatch", workers)
		}
		for i := range eis {
			if !tensor.Identical(eis[i], wantEIs[i]) {
				t.Fatalf("workers=%d: fused EI %d not bit-identical to BackwardInputBatch", workers, i)
			}
		}
		e.Fused().BackwardBatch(c, nil, gotDW, eos, ins, w)
		if !tensor.Identical(gotDW, wantDW) {
			t.Fatalf("workers=%d: dW changes when the input gradient is elided", workers)
		}
	}
	if New(unfoldgemm.Generator(1), s).Fused() != nil {
		t.Fatal("executor over a kernel with no fused entry claims one")
	}
}

func makeBatch(r *rng.RNG, s conv.Spec, n int, sparsity float64) (ins, outs, eos, eis []*tensor.Tensor) {
	for i := 0; i < n; i++ {
		ins = append(ins, conv.RandInput(r, s))
		outs = append(outs, conv.NewOutput(s))
		eos = append(eos, conv.RandOutputError(r, s, sparsity))
		eis = append(eis, conv.NewInput(s))
	}
	return
}

func TestBatchForwardMatchesReference(t *testing.T) {
	r := rng.New(1)
	s := conv.Square(10, 4, 3, 3, 1)
	for _, workers := range []int{1, 2, 5, 16} {
		c := exec.New(workers)
		for _, batch := range []int{1, 3, 8, 17} {
			ins, outs, _, _ := makeBatch(r, s, batch, 0)
			w := conv.RandWeights(r, s)
			e := New(unfoldgemm.Generator(1), s)
			e.ForwardBatch(c, outs, ins, w)
			for i := range outs {
				want := conv.NewOutput(s)
				conv.ForwardRef(s, want, ins[i], w)
				if !tensor.AlmostEqual(outs[i], want, 1e-3) {
					t.Fatalf("workers=%d batch=%d: output %d wrong", workers, batch, i)
				}
			}
		}
	}
}

func TestBatchBackwardInput(t *testing.T) {
	r := rng.New(2)
	s := conv.Square(9, 5, 2, 3, 2)
	w := conv.RandWeights(r, s)
	_, _, eos, eis := makeBatch(r, s, 7, 0.7)
	e := New(spkernel.Generator(), s)
	e.BackwardInputBatch(exec.New(3), eis, eos, w)
	for i := range eis {
		want := conv.NewInput(s)
		conv.BackwardInputRef(s, want, eos[i], w)
		if !tensor.AlmostEqual(eis[i], want, 1e-3) {
			t.Fatalf("EI %d wrong", i)
		}
	}
}

func TestBatchBackwardWeightsSumsOverBatch(t *testing.T) {
	r := rng.New(3)
	s := conv.Square(8, 3, 2, 3, 1)
	for _, workers := range []int{1, 2, 4, 9} {
		ins, _, eos, _ := makeBatch(r, s, 6, 0.5)
		e := New(stencil.Generator(), s)
		dw := conv.NewWeights(s)
		dw.FillUniform(r, 5, 6) // must be overwritten
		e.BackwardWeightsBatch(exec.New(workers), dw, eos, ins)
		want := conv.NewWeights(s)
		tmp := conv.NewWeights(s)
		for i := range ins {
			conv.BackwardWeightsRef(s, tmp, eos[i], ins[i])
			want.AddScaled(tmp, 1)
		}
		if !tensor.AlmostEqual(dw, want, 1e-3) {
			t.Fatalf("workers=%d: batch dW differs from per-image sum (max diff %g)",
				workers, tensor.MaxAbsDiff(dw, want))
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	s := conv.Square(6, 2, 1, 2, 1)
	e := New(unfoldgemm.Generator(1), s)
	c := exec.New(4)
	e.ForwardBatch(c, nil, nil, conv.NewWeights(s))
	dw := conv.NewWeights(s)
	dw.Data[0] = 7
	e.BackwardWeightsBatch(c, dw, nil, nil)
	if dw.Data[0] != 0 {
		t.Fatal("BackwardWeightsBatch on empty batch should produce zero gradient")
	}
}

func TestMoreWorkersThanInputs(t *testing.T) {
	r := rng.New(4)
	s := conv.Square(6, 2, 1, 2, 1)
	e := New(unfoldgemm.Generator(1), s)
	ins, outs, _, _ := makeBatch(r, s, 2, 0)
	w := conv.RandWeights(r, s)
	e.ForwardBatch(exec.New(8), outs, ins, w)
	want := conv.NewOutput(s)
	conv.ForwardRef(s, want, ins[1], w)
	if !tensor.AlmostEqual(outs[1], want, 1e-3) {
		t.Fatal("output wrong with workers > batch")
	}
}

func TestMismatchedBatchPanics(t *testing.T) {
	s := conv.Square(6, 2, 1, 2, 1)
	e := New(unfoldgemm.Generator(1), s)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched batch lengths did not panic")
		}
	}()
	e.ForwardBatch(exec.New(2), make([]*tensor.Tensor, 1), make([]*tensor.Tensor, 2), conv.NewWeights(s))
}

func TestNameAndAccessors(t *testing.T) {
	s := conv.Square(6, 2, 1, 2, 1)
	e := New(stencil.Generator(), s)
	if e.Spec() != s {
		t.Fatal("spec accessor")
	}
	if e.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestSingleSampleCompat(t *testing.T) {
	r := rng.New(5)
	s := conv.Square(8, 3, 2, 3, 1)
	e := New(unfoldgemm.Generator(1), s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	out := conv.NewOutput(s)
	// One sample, four workers: the fan-out must cope with n < workers.
	e.ForwardBatch(exec.New(4), []*tensor.Tensor{out}, []*tensor.Tensor{in}, w)
	want := conv.NewOutput(s)
	conv.ForwardRef(s, want, in, w)
	if !tensor.AlmostEqual(out, want, 1e-3) {
		t.Fatal("single-sample ForwardBatch wrong")
	}
}

func BenchmarkGEMMInParallelFP(b *testing.B) {
	r := rng.New(1)
	s := conv.Square(16, 32, 16, 3, 1)
	e := New(unfoldgemm.Generator(1), s)
	c := exec.New(4)
	ins, outs, _, _ := makeBatch(r, s, 16, 0)
	w := conv.RandWeights(r, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForwardBatch(c, outs, ins, w)
	}
}
