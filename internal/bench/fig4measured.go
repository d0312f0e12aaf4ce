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
	reps := 3
	if o.full() {
		maxFlops = 500e6
		reps = 5
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

		tBase := fpTime(reps, c, base, out, in, w)
		tStencil := fpTime(reps, c, stk, out, in, w)
		fp.AddRow(row.ID, s.String(), s.Nf, tBase*1e3, tStencil*1e3, tBase/tStencil)

		// Dense BP baseline time (sparsity-independent).
		tDenseBP := bpTime(reps, c, base, ei, dw, conv.RandOutputError(r, s, 0), in, w)
		spCells := []any{fmt.Sprintf("ID:%d", row.ID)}
		for _, sp := range Fig4fSparsities {
			tSparse := bpTime(reps, c, spk, ei, dw, conv.RandOutputError(r, s, sp), in, w)
			spCells = append(spCells, tDenseBP/tSparse)
		}
		bp.AddRow(spCells...)

		gpCells := []any{fmt.Sprintf("ID:%d", row.ID)}
		for _, sp := range SparsityLevels {
			eo := conv.RandOutputError(r, s, sp)
			tSparse := bpTime(reps, c, spk, ei, dw, eo, in, w)
			nzf := 2 * spkernel.NonZeroFlops(s, eo.NNZ()) // EI + dW
			gpCells = append(gpCells, float64(nzf)/tSparse/1e9)
		}
		goodput.AddRow(gpCells...)
	}
	return []Table{fp, goodput, bp}
}
