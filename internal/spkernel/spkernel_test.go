package spkernel

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

func TestDifferentialVsUnfoldGEMM(t *testing.T) {
	// The sparse kernel's whole point is the high-sparsity regime, so the
	// sweep leans there — through CIFAR conv0's measured 0.94 to an all-zero
	// gradient — on top of dense and the 0.50/0.75 band edges. The sweep's
	// built-in specs are strided and non-square; it drives the fused entry
	// as well as the two separate ones.
	enginetest.RunDifferential(t, Generator(), unfoldgemm.Generator(1), enginetest.DiffOptions{
		Seed:       0xD1F5,
		Sparsities: []float64{0, 0.25, 0.5, 0.75, 0.9, 0.94, 0.99, 1},
	})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, Generator(), enginetest.Options{
		Trials: 25,
		Seed:   21,
		ExtraSpecs: []conv.Spec{
			conv.Square(28, 20, 1, 5, 1),  // MNIST L0
			conv.Square(8, 64, 64, 5, 1),  // CIFAR L1
			conv.Square(20, 8, 3, 5, 2),   // strided
			conv.Square(12, 130, 2, 3, 1), // Nf spans >2 CT-CSR tiles
		},
	})
}

func TestConformanceTileWidths(t *testing.T) {
	for _, tw := range []int{1, 3, 16, 1024} {
		tw := tw
		gen := engine.Generator{
			Name: "sparse-tiled",
			New:  func(s conv.Spec) engine.Kernel { return New(s, tw) },
		}
		enginetest.Run(t, gen, enginetest.Options{Trials: 6, Seed: uint64(200 + tw)})
	}
}

func TestFullySparseEOGivesZeroGradients(t *testing.T) {
	s := conv.Square(10, 4, 3, 3, 1)
	r := rng.New(1)
	k := New(s, 0)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	eo := conv.NewOutput(s) // all zeros
	c := exec.New(1)

	ei := conv.NewInput(s)
	ei.FillUniform(r, 1, 2)
	k.BackwardInputBatch(c, []*tensor.Tensor{ei}, []*tensor.Tensor{eo}, w)
	if ei.NNZ() != 0 {
		t.Fatal("zero EO produced non-zero EI")
	}
	dw := conv.NewWeights(s)
	dw.FillUniform(r, 1, 2)
	k.BackwardWeightsBatch(c, dw, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
	if dw.NNZ() != 0 {
		t.Fatal("zero EO produced non-zero dW")
	}
}

// TestBackwardBatchSteadyStateAllocs extends sparse's re-encode pin to the
// whole fused pass: once the pooled CT-CSR skeleton and the arena's free
// lists have been warmed by a worst-case (dense) gradient, a backward pass
// over fresh sparse gradients allocates nothing.
func TestBackwardBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops the pooled CT-CSR skeleton under the race detector")
	}
	s := conv.Square(36, 64, 3, 5, 1) // CIFAR conv0
	r := rng.New(7)
	c := exec.New(1)
	k := New(s, 0)
	w := conv.RandWeights(r, s)
	dw := conv.NewWeights(s)
	ins := []*tensor.Tensor{conv.RandInput(r, s), conv.RandInput(r, s)}
	eis := []*tensor.Tensor{conv.NewInput(s), conv.NewInput(s)}
	dense := []*tensor.Tensor{conv.RandOutputError(r, s, 0), conv.RandOutputError(r, s, 0)}
	k.BackwardBatch(c, eis, dw, dense, ins, w)
	sparse := []*tensor.Tensor{conv.RandOutputError(r, s, 0.94), conv.RandOutputError(r, s, 0.9)}
	for _, withEI := range [][]*tensor.Tensor{eis, nil} {
		if allocs := testing.AllocsPerRun(10, func() { k.BackwardBatch(c, withEI, dw, sparse, ins, w) }); allocs != 0 {
			t.Fatalf("steady-state fused BP (input gradient: %v) allocates %v times per pass, want 0",
				withEI != nil, allocs)
		}
	}
	// A first layer's kernel never computes EI: warmed without it, its
	// dW-only passes allocate nothing either.
	first := New(s, 0)
	first.BackwardBatch(c, nil, dw, dense, ins, nil)
	if allocs := testing.AllocsPerRun(10, func() { first.BackwardBatch(c, nil, dw, sparse, ins, nil) }); allocs != 0 {
		t.Fatalf("steady-state dW-only BP allocates %v times per pass, want 0", allocs)
	}
}

func TestSingleNonZeroPointerShift(t *testing.T) {
	// One non-zero EO[f=1, y'=2, x'=1] with stride (2,1) must land
	// exactly on EI[c, 2·2+ky, 1·1+kx] = eo·W[1,c,ky,kx] (Eq. 15).
	s := conv.Spec{Nx: 9, Ny: 9, Nc: 2, Nf: 3, Fx: 2, Fy: 2, Sx: 1, Sy: 2}
	r := rng.New(2)
	w := conv.RandWeights(r, s)
	eo := conv.NewOutput(s)
	eo.Set3(1, 2, 1, 5)
	ei := conv.NewInput(s)
	c := exec.New(1)
	New(s, 0).BackwardInputBatch(c, []*tensor.Tensor{ei}, []*tensor.Tensor{eo}, w)
	for c := 0; c < s.Nc; c++ {
		for ky := 0; ky < s.Fy; ky++ {
			for kx := 0; kx < s.Fx; kx++ {
				want := 5 * w.At4(1, c, ky, kx)
				if got := ei.At3(c, 4+ky, 1+kx); got != want {
					t.Fatalf("EI[%d,%d,%d] = %v, want %v", c, 4+ky, 1+kx, got, want)
				}
			}
		}
	}
	// Everything else must be zero: exactly Nc·Fy·Fx positions written.
	if ei.NNZ() > s.Nc*s.Fy*s.Fx {
		t.Fatalf("EI has %d non-zeros, want <= %d", ei.NNZ(), s.Nc*s.Fy*s.Fx)
	}
}

func TestWorkScalesWithNNZ(t *testing.T) {
	// The defining property of the sparse kernel: zero entries cost
	// nothing. We verify semantically (identical results whether zeros are
	// explicit or the tensor is mostly empty) and via NonZeroFlops.
	s := conv.Square(12, 6, 4, 3, 1)
	if NonZeroFlops(s, 0) != 0 {
		t.Fatal("zero nnz should be zero flops")
	}
	if NonZeroFlops(s, 10) != 2*10*3*3*4 {
		t.Fatalf("NonZeroFlops = %d", NonZeroFlops(s, 10))
	}
}

func TestSparseMatchesReferenceAcrossSparsities(t *testing.T) {
	r := rng.New(3)
	s := conv.Square(14, 8, 5, 3, 1)
	k := New(s, 4)
	c := exec.New(1)
	w := conv.RandWeights(r, s)
	in := conv.RandInput(r, s)
	for _, sp := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.97, 1} {
		eo := conv.RandOutputError(r, s, sp)
		gotEI, wantEI := conv.NewInput(s), conv.NewInput(s)
		k.BackwardInputBatch(c, []*tensor.Tensor{gotEI}, []*tensor.Tensor{eo}, w)
		conv.BackwardInputRef(s, wantEI, eo, w)
		if !tensor.AlmostEqual(gotEI, wantEI, 1e-3) {
			t.Fatalf("EI differs at sparsity %v", sp)
		}
		gotDW, wantDW := conv.NewWeights(s), conv.NewWeights(s)
		k.BackwardWeightsBatch(c, gotDW, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
		conv.BackwardWeightsRef(s, wantDW, eo, in)
		if !tensor.AlmostEqual(gotDW, wantDW, 1e-3) {
			t.Fatalf("dW differs at sparsity %v", sp)
		}
	}
}

func benchBP(b *testing.B, sparsity float64) {
	s := conv.Square(32, 32, 32, 4, 1) // Table 1 ID 0
	r := rng.New(1)
	w := conv.RandWeights(r, s)
	eo := conv.RandOutputError(r, s, sparsity)
	eis, eos := []*tensor.Tensor{conv.NewInput(s)}, []*tensor.Tensor{eo}
	k := New(s, 0)
	c := exec.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardInputBatch(c, eis, eos, w)
	}
	nzf := NonZeroFlops(s, eo.NNZ())
	b.ReportMetric(float64(nzf)*float64(b.N)/b.Elapsed().Seconds()/1e9, "goodput-GFlops")
}

func BenchmarkBackwardInputSparsity50(b *testing.B) { benchBP(b, 0.50) }
func BenchmarkBackwardInputSparsity85(b *testing.B) { benchBP(b, 0.85) }
func BenchmarkBackwardInputSparsity97(b *testing.B) { benchBP(b, 0.97) }

// benchCIFAR times one whole backward pass (Eq. 3 + Eq. 4, or Eq. 4 alone
// when the input gradient is elided) per sample on a CIFAR layer shape.
func benchCIFAR(b *testing.B, s conv.Spec, sparsity float64, needEI bool) {
	r := rng.New(1)
	c := exec.New(1)
	k := New(s, 0)
	w := conv.RandWeights(r, s)
	const batch = 8
	var eis, eos, ins []*tensor.Tensor
	for i := 0; i < batch; i++ {
		eos = append(eos, conv.RandOutputError(r, s, sparsity))
		ins = append(ins, conv.RandInput(r, s))
		if needEI {
			eis = append(eis, conv.NewInput(s))
		}
	}
	dw := conv.NewWeights(s)
	k.BackwardBatch(c, eis, dw, eos, ins, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardBatch(c, eis, dw, eos, ins, w)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/image")
}

func BenchmarkBackwardConv0(b *testing.B) { benchCIFAR(b, conv.Square(36, 64, 3, 5, 1), 0.94, true) }
func BenchmarkBackwardConv0NoEI(b *testing.B) {
	benchCIFAR(b, conv.Square(36, 64, 3, 5, 1), 0.94, false)
}
func BenchmarkBackwardConv1(b *testing.B) { benchCIFAR(b, conv.Square(8, 64, 64, 5, 1), 0.50, true) }

// poolEO is a CIFAR conv0 error gradient after ReLU and max-pool: in each
// 4×4 window of each plane, with probability p, one position holds a
// gradient and the rest are zero (~94 % sparse at p = 0.9).
func poolEO(r *rng.RNG, s conv.Spec, p float64) *tensor.Tensor {
	eo := conv.NewOutput(s)
	oy, ox := s.OutY(), s.OutX()
	for f := 0; f < s.Nf; f++ {
		for y := 0; y+4 <= oy; y += 4 {
			for x := 0; x+4 <= ox; x += 4 {
				if r.Float64() < p {
					eo.Set3(f, y+r.Intn(4), x+r.Intn(4), float32(r.NormFloat64()))
				}
			}
		}
	}
	return eo
}

// BenchmarkSparseWeights times Eq. 4 alone (a network's first layer) on
// CIFAR conv0 over one worker's chunk of a batch-16 step on two workers:
// 8 images with pool-structured gradients.
func BenchmarkSparseWeights(b *testing.B) {
	s := conv.Square(36, 64, 3, 5, 1)
	r := rng.New(1)
	c := exec.New(1)
	k := New(s, 0)
	const batch = 8
	var eos, ins []*tensor.Tensor
	nnz := 0
	for range batch {
		eo := poolEO(r, s, 0.9)
		nnz += eo.NNZ()
		eos, ins = append(eos, eo), append(ins, conv.RandInput(r, s))
	}
	dw := conv.NewWeights(s)
	k.BackwardWeightsBatch(c, dw, eos, ins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardWeightsBatch(c, dw, eos, ins)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/image")
	b.ReportMetric(float64(NonZeroFlops(s, nnz))*float64(b.N)/b.Elapsed().Seconds()/1e9, "goodput-GFlops")
}
