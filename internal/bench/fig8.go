package bench

import (
	"fmt"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/rng"
	"spgcnn/internal/spkernel"
	"spgcnn/internal/stencil"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// Fig8Sparsity is the error sparsity Fig. 8's BP bars assume — the paper
// picks 85% conservatively from Fig. 3b.
const Fig8Sparsity = 0.85

// RunFig8 reproduces Fig. 8: per-layer speedups of the spg-CNN techniques
// over Parallel-GEMM on the four benchmark networks. Two tables come back:
//
//   - modeled 16-core speedups (the paper's setting), from the machine
//     model: FP GiP/P-GEMM, FP (GiP or Stencil, whichever the scheduler
//     would deploy)/P-GEMM, and BP Sparse/P-GEMM at 85% sparsity;
//   - measured single-host speedups from real kernel executions at reduced
//     spatial scale: stencil vs unfold FP and sparse vs dense BP — the
//     single-core-meaningful comparisons (see DESIGN.md §2).
func RunFig8(o Options) []Table {
	return []Table{fig8Model(o.machineOf()), fig8Measured(o)}
}

func fig8Model(m machine.Machine) Table {
	const p = 16
	t := Table{
		Title:   "Fig 8 (modeled, 16 cores): speedup over Parallel-GEMM per conv layer",
		Note:    fmt.Sprintf("BP assumes %.0f%% error sparsity (per Fig. 3b)", Fig8Sparsity*100),
		Columns: []string{"Network", "Layer", "Nf", "FP GiP", "FP GiP+Stencil", "BP Sparse"},
	}
	for _, l := range Table2() {
		s := l.Spec
		pg := m.ParallelGEMM(s, ait.FP, p)
		gip := m.GEMMInParallel(s, ait.FP, p)
		st := m.Stencil(s, p)
		fpBest := gip
		if st > fpBest {
			fpBest = st
		}
		bp := fig8ModelBPSpeedup(m, s, p)
		t.AddRow(l.Network, fmt.Sprintf("L%d", l.Layer), s.Nf, gip/pg, fpBest/pg, bp)
	}
	return t
}

// fig8ModelBPSpeedup returns tBP(Parallel-GEMM)/tBP(Sparse) at
// Fig8Sparsity on p cores.
func fig8ModelBPSpeedup(m machine.Machine, s conv.Spec, p int) float64 {
	fEI := float64(ait.MMOf(s, ait.BPInput).Flops())
	fDW := float64(ait.MMOf(s, ait.BPWeights).Flops())
	tDense := fEI/(m.ParallelGEMM(s, ait.BPInput, p)*float64(p)*1e9) +
		fDW/(m.ParallelGEMM(s, ait.BPWeights, p)*float64(p)*1e9)
	useful := (fEI + fDW) * (1 - Fig8Sparsity)
	goodput := m.SparseGoodput(s, Fig8Sparsity, p) * float64(p) * 1e9
	tSparse := useful / goodput
	return tDense / tSparse
}

func fig8Measured(o Options) Table {
	workers := o.workers()
	var maxFlops int64 = 30e6
	if o.full() {
		maxFlops = 500e6
	}
	t := Table{
		Title: "Fig 8 (measured on this host): kernel speedups over serial Unfold+GEMM",
		Note: fmt.Sprintf("layer cost capped at %dM flops; %d workers; BP at %.0f%% sparsity. "+
			"NOTE: the flop cap shrinks layers into cache, removing the unfold memory "+
			"pressure the stencil exploits — see ablation-spatial for the full-footprint effect",
			maxFlops/1e6, workers, Fig8Sparsity*100),
		Columns: []string{"Network", "Layer", "Spec (scaled)", "FP Stencil", "BP Sparse"},
	}
	r := rng.New(0xF188)
	c := exec.New(1)
	for _, l := range Table2() {
		s := ScaledForHost(l.Spec, maxFlops)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		eo := conv.RandOutputError(r, s, Fig8Sparsity)
		out := conv.NewOutput(s)
		ei := conv.NewInput(s)
		dw := conv.NewWeights(s)

		base := unfoldgemm.New(s, 1)
		stk := stencil.New(s)
		spk := spkernel.New(s, 0)

		// FP and BP are separate passes, as in fig4-measured: each ratio
		// compares two kernels of one phase, so no FP run follows a BP run.
		fp := c.Measure(nil, fpRun(c, base, out, in, w), fpRun(c, stk, out, in, w))
		bp := c.Measure(nil, bpRun(c, base, ei, dw, eo, in, w), bpRun(c, spk, ei, dw, eo, in, w))
		t.AddRow(l.Network, fmt.Sprintf("L%d", l.Layer), s.String(), fp[0]/fp[1], bp[0]/bp[1])
	}
	return t
}

// fpRun is one sample's forward pass (Eq. 2) through k, for Ctx.Measure.
// The one-element batches are built outside the timed closure.
func fpRun(c *exec.Ctx, k engine.Kernel, out, in, w *tensor.Tensor) func() {
	outs, ins := []*tensor.Tensor{out}, []*tensor.Tensor{in}
	return func() { k.ForwardBatch(c, outs, ins, w) }
}

// bpRun is one sample's backward pass (Eq. 3 + Eq. 4) through k, for
// Ctx.Measure.
func bpRun(c *exec.Ctx, k engine.Kernel, ei, dw, eo, in, w *tensor.Tensor) func() {
	eis, eos, ins := []*tensor.Tensor{ei}, []*tensor.Tensor{eo}, []*tensor.Tensor{in}
	return func() {
		k.BackwardInputBatch(c, eis, eos, w)
		k.BackwardWeightsBatch(c, dw, eos, ins)
	}
}
