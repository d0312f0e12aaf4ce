package unfoldgemm

import (
	"fmt"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/gemm"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfold"
)

// explicitKernel is the composition the implicit unfold replaced, kept as
// its oracle: per image and group, a materialized U (unfold.Im2col on the
// group's ungrouped sub-spec) feeding
//
//	FP:    gemm.MulTransB            O = Wmat · Uᵀ
//	BP-EI: mulTransA, unfold.Col2im  U_E = EOmatᵀ · Wmat, then fold
//	BP-dW: gemm.SerialAccum          dW += EOmat · U
type explicitKernel struct{ s conv.Spec }

func explicitGenerator() engine.Generator {
	return engine.Generator{Name: "explicit-unfold-gemm", New: func(s conv.Spec) engine.Kernel { return explicitKernel{s} }}
}

func (k explicitKernel) Name() string    { return "explicit-unfold-gemm" }
func (k explicitKernel) Spec() conv.Spec { return k.s }

// group returns group g's ungrouped sub-spec: a grouped convolution is G
// ungrouped ones over consecutive channel, feature and weight blocks.
func (k explicitKernel) group(g int) conv.Spec {
	sub := k.s
	sub.Nc, sub.Nf, sub.Groups = k.s.GroupNc(), k.s.GroupNf(), 0
	return sub
}

// block views group g's n-element block of t with the given shape.
func block(t *tensor.Tensor, g, n int, dims ...int) *tensor.Tensor {
	return tensor.FromSlice(t.Data[g*n:(g+1)*n], dims...)
}

// matrix views group g's rows × cols block of t as a matrix.
func matrix(t *tensor.Tensor, g, rows, cols int) *gemm.Matrix {
	return gemm.FromSlice(t.Data[g*rows*cols:(g+1)*rows*cols], rows, cols)
}

func (k explicitKernel) ForwardBatch(_ *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	for g := 0; g < k.s.G(); g++ {
		sub := k.group(g)
		u := unfold.NewU(sub)
		for i := range ins {
			unfold.Im2col(sub, u, block(ins[i], g, int(sub.InputSize()), sub.Nc, sub.Ny, sub.Nx))
			gemm.MulTransB(matrix(outs[i], g, sub.Nf, u.Rows), matrix(w, g, sub.Nf, u.Cols), u)
		}
	}
}

func (k explicitKernel) BackwardInputBatch(_ *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	for g := 0; g < k.s.G(); g++ {
		sub := k.group(g)
		ue := unfold.NewU(sub)
		for i := range eos {
			mulTransA(ue, matrix(eos[i], g, sub.Nf, ue.Rows), matrix(w, g, sub.Nf, ue.Cols))
			unfold.Col2im(sub, block(eis[i], g, int(sub.InputSize()), sub.Nc, sub.Ny, sub.Nx), ue)
		}
	}
}

func (k explicitKernel) BackwardWeightsBatch(_ *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	dw.Zero()
	for i := range ins {
		for g := 0; g < k.s.G(); g++ {
			sub := k.group(g)
			u := unfold.NewU(sub)
			unfold.Im2col(sub, u, block(ins[i], g, int(sub.InputSize()), sub.Nc, sub.Ny, sub.Nx))
			gemm.SerialAccum(matrix(dw, g, sub.Nf, u.Cols), matrix(eos[i], g, sub.Nf, u.Rows), u)
		}
	}
}

// mulTransA is the scatter GEMM C = Aᵀ·B the explicit BP-EI ran: C starts
// at zero and every non-zero A[k][i] adds A[k][i]·B[k][*] to row i, k in
// increasing order.
func mulTransA(c, a, b *gemm.Matrix) {
	c.Zero()
	for k := 0; k < a.Rows; k++ {
		for i, aki := range a.Row(k) {
			if aki == 0 {
				continue
			}
			crow, brow := c.Row(i), b.Row(k)
			for j := range crow {
				crow[j] += aki * brow[j]
			}
		}
	}
}

// oracleSpecs covers every geometry the panel builders branch on.
func oracleSpecs() []conv.Spec {
	return []conv.Spec{
		conv.Square(12, 6, 3, 3, 1), // plain
		{Nx: 10, Ny: 9, Nc: 4, Nf: 5, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1},                // padded
		{Nx: 12, Ny: 12, Nc: 3, Nf: 4, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 2, Py: 2, Dx: 2, Dy: 2}, // dilated
		{Nx: 9, Ny: 9, Nc: 6, Nf: 6, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 6},      // depthwise
		{Nx: 8, Ny: 8, Nc: 4, Nf: 6, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Groups: 2},                    // grouped
		{Nx: 13, Ny: 11, Nc: 3, Nf: 5, Fx: 3, Fy: 3, Sx: 2, Sy: 2, Px: 1, Py: 1},               // stride 2
		conv.Square(8, 7, 5, 1, 1),                                // 1x1
		conv.Square(8, 16, 12, 5, 1),                              // OutX 4 < 8 (CIFAR conv1's shape)
		{Nx: 13, Ny: 6, Nc: 3, Nf: 9, Fx: 3, Fy: 3, Sx: 1, Sy: 1}, // OutX 11, not a multiple of 8
		{Nx: 11, Ny: 9, Nc: 6, Nf: 9, Fx: 3, Fy: 2, Sx: 2, Sy: 1, Px: 1, Py: 2, Dx: 2, Dy: 1, Groups: 3}, // everything
		conv.Square(24, 8, 8, 3, 1), // BP-dW GEMM with K = 484 pixels
		// OutX 4-7 at unit stride: two-run FP panels, the 4-pixel fold
		// plus its tail, and BP-dW sub-batches of nb > 1 images.
		{Nx: 7, Ny: 5, Nc: 3, Nf: 5, Fx: 3, Fy: 3, Sx: 1, Sy: 1},               // OutX 5
		{Nx: 6, Ny: 6, Nc: 2, Nf: 6, Fx: 3, Fy: 2, Sx: 1, Sy: 1, Px: 1},        // OutX 6, padded
		{Nx: 9, Ny: 7, Nc: 4, Nf: 4, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Groups: 2},    // OutX 7, grouped
		{Nx: 8, Ny: 8, Nc: 4, Nf: 9, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1}, // OutX 8, 64 pixels
		// OutX 4-7 at stride 2: the same panel widths, all gathered.
		{Nx: 9, Ny: 9, Nc: 3, Nf: 4, Fx: 3, Fy: 3, Sx: 2, Sy: 2},                       // OutX 4
		{Nx: 11, Ny: 8, Nc: 2, Nf: 5, Fx: 3, Fy: 3, Sx: 2, Sy: 1},                      // OutX 5
		{Nx: 10, Ny: 10, Nc: 3, Nf: 6, Fx: 3, Fy: 3, Sx: 2, Sy: 2, Px: 1, Py: 1},       // OutX 6
		{Nx: 13, Ny: 7, Nc: 4, Nf: 8, Fx: 3, Fy: 3, Sx: 2, Sy: 2, Px: 1, Dx: 1, Dy: 2}, // OutX 7
	}
}

// TestMatchesExplicitOracle pins the implicit unfold to the explicit
// composition bit for bit in all three phases: gemm has one kernel path,
// whose one k-ordered accumulator per element is the implicit BP-dW's too.
// The implicit BP-EI skips exactly the zero EO entries the explicit
// scatter skipped, so the two agree even for non-finite weights; this test
// draws finite ones.
func TestMatchesExplicitOracle(t *testing.T) {
	r := rng.New(0x0AC1E)
	c := exec.New(2)
	for _, s := range oracleSpecs() {
		ref := explicitKernel{s}
		w := conv.RandWeights(r, s)
		for _, batch := range []int{1, 3} {
			var ins []*tensor.Tensor
			for i := 0; i < batch; i++ {
				ins = append(ins, conv.RandInput(r, s))
			}
			want := make([]*tensor.Tensor, batch)
			for i := range want {
				want[i] = conv.NewOutput(s)
			}
			ref.ForwardBatch(c, want, ins, w)
			for _, sp := range []float64{0, 0.5, 0.9, 0.99, 1} {
				var eos []*tensor.Tensor
				wantEI := make([]*tensor.Tensor, batch)
				for i := 0; i < batch; i++ {
					eos = append(eos, conv.RandOutputError(r, s, sp))
					wantEI[i] = conv.NewInput(s)
				}
				ref.BackwardInputBatch(c, wantEI, eos, w)
				wantDW := conv.NewWeights(s)
				ref.BackwardWeightsBatch(c, wantDW, eos, ins)
				for _, workers := range []int{1, 2, 3} {
					k := New(s, workers)
					label := fmt.Sprintf("%v batch %d sparsity %.2f workers %d", s, batch, sp, workers)
					outs, eis := make([]*tensor.Tensor, batch), make([]*tensor.Tensor, batch)
					for i := range outs {
						outs[i], eis[i] = conv.NewOutput(s), conv.NewInput(s)
						outs[i].FillUniform(r, -9, 9)
						eis[i].FillUniform(r, -9, 9)
					}
					k.ForwardBatch(c, outs, ins, w)
					k.BackwardInputBatch(c, eis, eos, w)
					dw := conv.NewWeights(s)
					dw.FillUniform(r, -9, 9)
					k.BackwardWeightsBatch(c, dw, eos, ins)
					for i := range outs {
						if !tensor.Identical(outs[i], want[i]) {
							t.Fatalf("FP differs from Im2col → MulTransB: %s", label)
						}
						if !tensor.Identical(eis[i], wantEI[i]) {
							t.Fatalf("BP-EI differs from mulTransA → Col2im: %s", label)
						}
					}
					if !tensor.Identical(dw, wantDW) {
						t.Fatalf("BP-dW differs from Im2col → SerialAccum: %s", label)
					}
				}
			}
		}
	}
}

// TestDifferentialVsExplicit holds the implicit unfold to the explicit
// composition under the shared ULP budget across the differential suite's
// plain, random and generalized specs.
func TestDifferentialVsExplicit(t *testing.T) {
	for _, workers := range []int{1, 3} {
		enginetest.RunDifferential(t, Generator(workers), explicitGenerator(),
			enginetest.DiffOptions{Seed: 0xD1F6, ExtraSpecs: oracleSpecs()})
	}
}

// TestSubBatchesMatchExplicitOracle runs BP-dW over batches that cross the
// sub-batch boundary — 1, 3, nb+1 and 2nb+3 images, so the last sub-batch
// holds one image, a few, or a full nb — at 1 to 3 workers: dW must stay
// bit-identical to the explicit per-image SerialAccum.
func TestSubBatchesMatchExplicitOracle(t *testing.T) {
	r := rng.New(0x5B)
	c := exec.New(3)
	specs := []conv.Spec{
		conv.Square(8, 16, 12, 5, 1), // OutX 4, nb 16
		{Nx: 8, Ny: 8, Nc: 8, Nf: 8, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 8}, // depthwise 8×8, nb 4
		{Nx: 8, Ny: 8, Nc: 6, Nf: 7, Fx: 1, Fy: 1, Sx: 1, Sy: 1},                          // 1×1, nb 4, Nf % 4 = 3
		{Nx: 9, Ny: 9, Nc: 3, Nf: 6, Fx: 3, Fy: 3, Sx: 2, Sy: 2, Px: 1, Py: 1},            // stride 2, padded, nb 10
		conv.Square(20, 8, 4, 3, 1), // 324 pixels, nb 1
	}
	for _, s := range specs {
		nb := New(s, 1).nb
		for _, batch := range []int{1, 3, nb + 1, 2*nb + 3} {
			var ins, eos []*tensor.Tensor
			for i := 0; i < batch; i++ {
				ins = append(ins, conv.RandInput(r, s))
				eos = append(eos, conv.RandOutputError(r, s, 0.5))
			}
			want := conv.NewWeights(s)
			explicitKernel{s}.BackwardWeightsBatch(c, want, eos, ins)
			for _, workers := range []int{1, 2, 3} {
				dw := conv.NewWeights(s)
				dw.FillUniform(r, -9, 9)
				New(s, workers).BackwardWeightsBatch(c, dw, eos, ins)
				if !tensor.Identical(dw, want) {
					t.Fatalf("BP-dW differs from Im2col → SerialAccum: %v nb %d batch %d workers %d", s, nb, batch, workers)
				}
			}
		}
	}
}
