package bench

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/spkernel"
	"spgcnn/internal/stencil"
	"spgcnn/internal/unfoldgemm"
)

// RunFig4Measured produces the single-host executable analogues of
// Figs. 4d and 4f: real kernel timings comparing the Stencil-Kernel (FP)
// and the Sparse-Kernel (BP) against serial Unfold+GEMM on the (spatially
// scaled) Table 1 convolutions. These comparisons are single-core
// meaningful — the effects they measure (unfold memory traffic vs direct
// convolution; zero-skipping vs dense work) do not depend on core count —
// so this experiment runs real code rather than the machine model.
func RunFig4Measured(o Options) []Table {
	var maxFlops int64 = 30e6
	if o.full() {
		maxFlops = 500e6
	}
	r := rng.New(0x4D4F)
	c := exec.New(1)

	fp := Table{
		Title: "Fig 4d analogue (measured): Stencil-Kernel FP speedup over serial Unfold+GEMM",
		Note: fmt.Sprintf("Table 1 convolutions, cost capped at %dM flops; >1 means stencil wins. "+
			"The cap keeps the unfolded matrix cache-resident, muting the stencil's "+
			"advantage — ablation-spatial measures the full-footprint regime",
			maxFlops/1e6),
		Columns: []string{"ID", "Spec (scaled)", "Nf", "Unfold ms", "Stencil ms", "Speedup"},
	}
	bp := Table{
		Title:   "Fig 4f analogue (measured): Sparse-Kernel BP speedup over serial Unfold+GEMM",
		Columns: sparsityCols("ID", Fig4fSparsities),
	}
	goodput := Table{
		Title:   "Fig 4e analogue (measured): Sparse-Kernel BP goodput (GFlops, single core)",
		Note:    "goodput = non-zero flops / elapsed, including layout transforms and CT-CSR build",
		Columns: sparsityCols("ID", SparsityLevels),
	}

	for _, row := range Table1() {
		s := ScaledForHost(row.Spec, maxFlops)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		out := conv.NewOutput(s)
		ei := conv.NewInput(s)
		dw := conv.NewWeights(s)
		base := unfoldgemm.New(s, 1)
		stk := stencil.New(s)
		spk := spkernel.New(s, 0)

		tFP := c.Measure(nil, fpRun(c, base, out, in, w), fpRun(c, stk, out, in, w))
		fp.AddRow(row.ID, s.String(), s.Nf, tFP[0]*1e3, tFP[1]*1e3, tFP[0]/tFP[1])

		// Dense BP baseline, timed on a fully dense EO: its BP-EI scatter
		// skips zero EO entries, so timing it at each sparsity would hand it
		// part of the Sparse-Kernel's advantage.
		runs := []func(){bpRun(c, base, ei, dw, conv.RandOutputError(r, s, 0), in, w)}
		for _, sp := range Fig4fSparsities {
			runs = append(runs, bpRun(c, spk, ei, dw, conv.RandOutputError(r, s, sp), in, w))
		}
		tBP := c.Measure(nil, runs...)
		spCells := []any{fmt.Sprintf("ID:%d", row.ID)}
		for _, tSparse := range tBP[1:] {
			spCells = append(spCells, tBP[0]/tSparse)
		}
		bp.AddRow(spCells...)

		runs = nil
		var nzf []int64
		for _, sp := range SparsityLevels {
			eo := conv.RandOutputError(r, s, sp)
			runs = append(runs, bpRun(c, spk, ei, dw, eo, in, w))
			nzf = append(nzf, 2*spkernel.NonZeroFlops(s, eo.NNZ())) // EI + dW
		}
		gpCells := []any{fmt.Sprintf("ID:%d", row.ID)}
		for i, tSparse := range c.Measure(nil, runs...) {
			gpCells = append(gpCells, float64(nzf[i])/tSparse/1e9)
		}
		goodput.AddRow(gpCells...)
	}
	return []Table{fp, goodput, bp}
}
