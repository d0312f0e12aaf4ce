package spweight

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

func TestDifferential(t *testing.T) {
	enginetest.RunDifferential(t, Generator(), unfoldgemm.Generator(1), enginetest.DiffOptions{
		WeightSparsities: []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99},
		ExtraSpecs: []conv.Spec{
			conv.Square(36, 64, 3, 5, 1),
			{Nx: 19, Ny: 9, Nc: 11, Nf: 13, Fx: 3, Fy: 2, Sx: 3, Sy: 2},
		},
	})
}

// TestBitIdentity pins the package's strongest claim: FP over compressed
// weights is bit-for-bit IDENTICAL to the serial unfold+GEMM engine —
// not merely within ULP tolerance — at every weight sparsity, because
// taps are applied in the reference (c, ky, kx) order and skipped terms
// are exact ±0 products that can never flip an accumulator bit.
func TestBitIdentity(t *testing.T) {
	r := rng.New(0xB17)
	c := exec.New(1)
	specs := []conv.Spec{
		conv.Square(4, 1, 1, 1, 1),
		conv.Square(9, 3, 2, 3, 3),
		conv.Square(36, 64, 3, 5, 1),
		{Nx: 11, Ny: 5, Nc: 2, Nf: 3, Fx: 3, Fy: 2, Sx: 2, Sy: 1},
		{Nx: 13, Ny: 7, Nc: 3, Nf: 5, Fx: 3, Fy: 3, Sx: 2, Sy: 2},
	}
	for i := 0; i < 8; i++ {
		specs = append(specs, conv.RandSpec(r, 10))
	}
	for _, s := range specs {
		k := New(s)
		ref := unfoldgemm.New(s, 1)
		in := conv.RandInput(r, s)
		got, want := conv.NewOutput(s), conv.NewOutput(s)
		for _, ws := range []float64{0, 0.3, 0.6, 0.9, 0.99, 1} {
			w := conv.RandWeights(r, s)
			w.Sparsify(r, ws)
			w.Bump()
			k.ForwardBatch(c, []*tensor.Tensor{got}, []*tensor.Tensor{in}, w)
			ref.ForwardBatch(c, []*tensor.Tensor{want}, []*tensor.Tensor{in}, w)
			if !tensor.Identical(got, want) {
				t.Fatalf("%v ws=%.2f: sparse-weight FP is not bit-identical to unfold+GEMM", s, ws)
			}
		}
	}
}

// TestCompressCache verifies the per-Ver compression cache and that the
// plan actually shrinks with sparsity.
func TestCompressCache(t *testing.T) {
	r := rng.New(5)
	c := exec.New(1)
	s := conv.Square(9, 10, 5, 3, 1)
	k := New(s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Sparsify(r, 0.9)
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
	dense := s.Nf * s.Nc * s.Fy * s.Fx
	if got := len(k.plan.val); got > dense/5 {
		t.Fatalf("0.9-sparse weights compressed to %d taps, want <= %d", got, dense/5)
	}
	w.Bump()
	k.ForwardBatch(c, []*tensor.Tensor{out}, []*tensor.Tensor{in}, w)
	if got, _ := c.Probe().SpanStats(k.miss.Name); got.Calls != 2 {
		t.Fatalf("Bump did not invalidate the compression cache: %d misses", got.Calls)
	}
}

func BenchmarkForwardSparse90(b *testing.B) {
	r := rng.New(1)
	c := exec.New(1)
	s := conv.Square(36, 64, 3, 5, 1)
	k := New(s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Sparsify(r, 0.9)
	w.Bump()
	out := conv.NewOutput(s)
	outs, ins := []*tensor.Tensor{out}, []*tensor.Tensor{in}
	k.ForwardBatch(c, outs, ins, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
}
