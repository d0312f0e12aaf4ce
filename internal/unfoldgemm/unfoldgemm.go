// Package unfoldgemm implements the state-of-the-art baseline the paper
// characterizes (§2.3): convolution by unfolding (im2col) followed by
// GEMM, in the two scheduling flavours §3–4 contrast:
//
//   - workers == 1: the single-threaded GEMM that GEMM-in-Parallel runs
//     many instances of.
//   - workers > 1: Unfold+Parallel-GEMM — each of the three training GEMMs
//     is row-partitioned across all workers, reproducing the per-core AIT
//     reduction of §3.2.
//
// The three computations lower to the GEMMs of Fig. 2c:
//
//	FP:   O[Nf×pix]      = Wmat[Nf×taps] · Uᵀ
//	BP-EI: U_E[pix×taps] = EOmatᵀ · Wmat, then fold (col2im)
//	BP-dW: dW[Nf×taps]   = EOmat[Nf×pix] · U[pix×taps]
package unfoldgemm

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/gemm"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfold"
)

// Kernel is an unfold+GEMM convolution plan for one spec. It holds no
// scratch — the unfold matrices are drawn from the execution context's
// arena per batch call — so one instance is safe for concurrent use
// through the batch entry points.
type Kernel struct {
	spec    conv.Spec
	workers int
}

// New builds a kernel for s. workers selects Parallel-GEMM fan-out;
// workers <= 1 yields the single-threaded GEMM.
func New(s conv.Spec, workers int) *Kernel {
	s.MustValidate()
	if workers < 1 {
		workers = 1
	}
	return &Kernel{spec: s, workers: workers}
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string {
	if k.workers <= 1 {
		return "unfold-gemm(serial)"
	}
	return fmt.Sprintf("unfold-parallel-gemm(p=%d)", k.workers)
}

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// Workers reports the GEMM fan-out.
func (k *Kernel) Workers() int { return k.workers }

// ForwardBatch computes Eq. 2 by O = Wmat · Uᵀ, one GEMM per sample and
// group, all samples sharing one arena-backed unfold matrix. For G = 1
// the group slab is the whole matrix, so the plain path is unchanged.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("unfoldgemm: ForwardBatch length mismatch")
	}
	s := k.spec
	rows, cols := unfold.Rows(s), unfold.Cols(s)
	conv.CheckWeights(s, w)
	ng, gnf := s.G(), s.GroupNf()
	ubuf := c.Get(rows * cols)
	u := gemm.Matrix{Rows: rows, Cols: cols, Data: ubuf}
	for i := range ins {
		conv.CheckOutput(s, outs[i])
		for g := 0; g < ng; g++ {
			unfold.Im2colGroup(s, g, &u, ins[i])
			wmat := gemm.Matrix{Rows: gnf, Cols: cols, Data: w.Data[g*gnf*cols : (g+1)*gnf*cols]}
			omat := gemm.Matrix{Rows: gnf, Cols: rows, Data: outs[i].Data[g*gnf*rows : (g+1)*gnf*rows]}
			if k.workers <= 1 {
				gemm.MulTransB(&omat, &wmat, &u)
			} else {
				gemm.ParallelMulTransB(&omat, &wmat, &u, k.workers)
			}
		}
	}
	c.Put(ubuf)
}

// BackwardInputBatch computes Eq. 3 by U_E = EOmatᵀ · Wmat followed by
// col2im, per sample.
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("unfoldgemm: BackwardInputBatch length mismatch")
	}
	s := k.spec
	rows, cols := unfold.Rows(s), unfold.Cols(s)
	conv.CheckWeights(s, w)
	ng, gnf := s.G(), s.GroupNf()
	uebuf := c.Get(rows * cols)
	ue := gemm.Matrix{Rows: rows, Cols: cols, Data: uebuf}
	for i := range eos {
		conv.CheckOutput(s, eos[i])
		conv.CheckInput(s, eis[i])
		eis[i].Zero()
		for g := 0; g < ng; g++ {
			wmat := gemm.Matrix{Rows: gnf, Cols: cols, Data: w.Data[g*gnf*cols : (g+1)*gnf*cols]}
			eomat := gemm.Matrix{Rows: gnf, Cols: rows, Data: eos[i].Data[g*gnf*rows : (g+1)*gnf*rows]}
			if k.workers <= 1 {
				gemm.MulTransA(&ue, &eomat, &wmat)
			} else {
				gemm.ParallelMulTransA(&ue, &eomat, &wmat, k.workers)
			}
			unfold.Col2imGroup(s, g, eis[i], &ue)
		}
	}
	c.Put(uebuf)
}

// BackwardWeightsBatch computes dw = Σ_i EOmat_i · U_i (Eq. 4 summed over
// the batch). dw is overwritten.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("unfoldgemm: BackwardWeightsBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, dw)
	rows, cols := unfold.Rows(s), unfold.Cols(s)
	ng, gnf := s.G(), s.GroupNf()
	dw.Zero()
	ubuf := c.Get(rows * cols)
	u := gemm.Matrix{Rows: rows, Cols: cols, Data: ubuf}
	for i := range ins {
		conv.CheckOutput(s, eos[i])
		for g := 0; g < ng; g++ {
			unfold.Im2colGroup(s, g, &u, ins[i])
			dwmat := gemm.Matrix{Rows: gnf, Cols: cols, Data: dw.Data[g*gnf*cols : (g+1)*gnf*cols]}
			eomat := gemm.Matrix{Rows: gnf, Cols: rows, Data: eos[i].Data[g*gnf*rows : (g+1)*gnf*rows]}
			if k.workers <= 1 {
				gemm.SerialAccum(&dwmat, &eomat, &u)
			} else {
				gemm.ParallelAccum(&dwmat, &eomat, &u, k.workers)
			}
		}
	}
	c.Put(ubuf)
}

// Generator returns an engine.Generator for this technique at the given
// fan-out. Name is "unfold-gemm" for workers <= 1 and
// "unfold-parallel-gemm" otherwise (the paper's Parallel-GEMM baseline).
func Generator(workers int) engine.Generator {
	name := "unfold-gemm"
	if workers > 1 {
		name = "unfold-parallel-gemm"
	}
	return engine.Generator{
		Name: name,
		New:  func(s conv.Spec) engine.Kernel { return New(s, workers) },
	}
}
