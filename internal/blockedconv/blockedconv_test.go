package blockedconv

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, Generator(), enginetest.Options{})
}

// TestDifferential fuzzes the blocked engine against the serial unfold+GEMM
// lowering over random geometries, stride > 1, odd shapes and weight
// sparsities up to 0.99 (the tentpole's bit-compatibility gate).
func TestDifferential(t *testing.T) {
	enginetest.RunDifferential(t, Generator(), unfoldgemm.Generator(1), enginetest.DiffOptions{
		WeightSparsities: []float64{0, 0.5, 0.9, 0.99},
		ExtraSpecs: []conv.Spec{
			conv.Square(36, 64, 3, 5, 1), // CIFAR L0: panel width 40
			conv.Square(16, 17, 9, 3, 1), // both channel axes with tail blocks
			conv.Square(12, 8, 16, 3, 2), // strided, exact blocks
			{Nx: 19, Ny: 9, Nc: 11, Nf: 13, Fx: 3, Fy: 2, Sx: 3, Sy: 2},
		},
	})
}

// TestWeightBlockCache verifies the per-Ver cache: repeated FP with the
// same weights blocks once; a Bump re-blocks.
func TestWeightBlockCache(t *testing.T) {
	r := rng.New(3)
	c := exec.New(1)
	s := conv.Square(9, 10, 5, 3, 1)
	k := New(s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Bump()
	out := conv.NewOutput(s)
	for i := 0; i < 3; i++ {
		k.ForwardBatch(c, []*tensor.Tensor{out}, []*tensor.Tensor{in}, w)
	}
	hit, _ := c.Probe().SpanStats(k.hit.Name)
	miss, _ := c.Probe().SpanStats(k.miss.Name)
	if miss.Calls != 1 || hit.Calls != 2 {
		t.Fatalf("after 3 calls: %d misses, %d hits (want 1, 2)", miss.Calls, hit.Calls)
	}
	w.Bump()
	k.ForwardBatch(c, []*tensor.Tensor{out}, []*tensor.Tensor{in}, w)
	if got, _ := c.Probe().SpanStats(k.miss.Name); got.Calls != 2 {
		t.Fatalf("Bump did not invalidate the weight-block cache: %d misses", got.Calls)
	}
}

func BenchmarkForwardBlocked(b *testing.B) {
	r := rng.New(1)
	c := exec.New(1)
	s := conv.Square(36, 64, 3, 5, 1)
	k := New(s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Bump()
	out := conv.NewOutput(s)
	outs, ins := []*tensor.Tensor{out}, []*tensor.Tensor{in}
	k.ForwardBatch(c, outs, ins, w)
	b.SetBytes(int64(4 * len(in.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
}
