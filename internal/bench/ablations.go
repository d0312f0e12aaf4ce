package bench

import (
	"fmt"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/rng"
	"spgcnn/internal/spkernel"
	"spgcnn/internal/stencil"
	"spgcnn/internal/unfoldgemm"
)

// The ablation experiments isolate the design choices DESIGN.md §6 calls
// out. All but the machine-sensitivity study run real kernels.

// RunAblationSpatial measures stencil-vs-unfold FP speedup as the spatial
// extent grows with channels/features held fixed — isolating the unfolded
// matrix's cache footprint, which is where direct convolution's avoided
// memory traffic pays off (§3.1's |U| replication term). The crossover is
// the executable, scalar-Go counterpart of the paper's Fig. 4d advantage.
func RunAblationSpatial(o Options) []Table {
	reps := 3
	sizes := []int{16, 32, 64, 128, 256}
	if o.full() {
		reps = 5
		sizes = append(sizes, 384)
	}
	t := Table{
		Title:   "Ablation: Stencil vs Unfold+GEMM FP speedup vs spatial extent (measured)",
		Note:    "Nf=8, Nc=3, F=5, stride 1; |U| grows with N^2 and leaves cache while the stencil never materializes it",
		Columns: []string{"N", "|U| (KiB)", "Unfold ms", "Stencil ms", "Speedup"},
	}
	r := rng.New(0xAB1)
	c := exec.New(1)
	for _, n := range sizes {
		s := conv.Square(n, 8, 3, 5, 1)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		out := conv.NewOutput(s)
		tBase := fpTime(reps, c, unfoldgemm.New(s, 1), out, in, w)
		tStencil := fpTime(reps, c, stencil.New(s), out, in, w)
		t.AddRow(n, float64(s.UnfoldedSize()*4)/1024, tBase*1e3, tStencil*1e3, tBase/tStencil)
	}
	return []Table{t}
}

// RunAblationRTile measures the stencil kernel at every register-tile
// height against the basic-block generator's choice — validating (or
// indicting) the §4.3 load-minimization model on this machine.
func RunAblationRTile(o Options) []Table {
	reps := 3
	if o.full() {
		reps = 5
	}
	t := Table{
		Title:   "Ablation: stencil register-tile height (measured GFlops, single core)",
		Note:    "chosen = the basic-block generator's pick for this implementation",
		Columns: []string{"Spec", "ry=1", "ry=2", "ry=3", "ry=4", "chosen"},
	}
	r := rng.New(0xAB2)
	c := exec.New(1)
	specs := []conv.Spec{
		conv.Square(28, 20, 1, 5, 1), // MNIST L0
		conv.Square(36, 64, 3, 5, 1), // CIFAR L0
		conv.Square(64, 16, 8, 3, 1), // small-kernel case
	}
	for _, s := range specs {
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		out := conv.NewOutput(s)
		cells := []any{s.String()}
		for ry := 1; ry <= 4; ry++ {
			p := stencil.ChoosePlan(s)
			p.RY = ry
			el := fpTime(reps, c, stencil.NewWithPlan(p), out, in, w)
			cells = append(cells, float64(s.FlopsFP())/el/1e9)
		}
		cells = append(cells, fmt.Sprintf("ry=%d", stencil.ChoosePlan(s).RY))
		t.AddRow(cells...)
	}
	return []Table{t}
}

// RunAblationCTCSR measures sparse BP time across CT-CSR column-tile
// widths (a huge width degenerates to plain CSR) — the locality argument
// behind Fig. 5a.
func RunAblationCTCSR(o Options) []Table {
	reps := 3
	if o.full() {
		reps = 5
	}
	const sparsity = 0.85
	widths := []int{8, 16, 32, 64, 128, 1 << 20}
	t := Table{
		Title: "Ablation: CT-CSR column-tile width, sparse BP time in ms (measured)",
		Note:  fmt.Sprintf("EO at %.0f%% sparsity; width 2^20 degenerates to plain CSR", sparsity*100),
		Columns: func() []string {
			cols := []string{"Spec"}
			for _, w := range widths {
				if w >= 1<<20 {
					cols = append(cols, "CSR")
				} else {
					cols = append(cols, fmt.Sprintf("tw=%d", w))
				}
			}
			return cols
		}(),
	}
	r := rng.New(0xAB3)
	c := exec.New(1)
	specs := []conv.Spec{
		conv.Square(32, 32, 32, 4, 1),  // Table 1 ID 0
		conv.Square(16, 256, 16, 3, 1), // many features: tiling matters
		conv.Square(24, 128, 24, 5, 1),
	}
	for _, s := range specs {
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		eo := conv.RandOutputError(r, s, sparsity)
		ei := conv.NewInput(s)
		dw := conv.NewWeights(s)
		cells := []any{s.String()}
		for _, tw := range widths {
			el := bpTime(reps, c, spkernel.New(s, tw), ei, dw, eo, in, w)
			cells = append(cells, el*1e3)
		}
		t.AddRow(cells...)
	}
	return []Table{t}
}

// RunAblationMachine is the §4.4 sensitivity study ("these numbers are
// sensitive to the parameters of the implementation and the machine"): it
// sweeps the machine model's roofline knee and shared bandwidth and
// reports how the GiP-over-Parallel-GEMM speedup at 16 cores moves for a
// moderate-AIT convolution (Table 1 ID 2).
func RunAblationMachine(Options) []Table {
	s := conv.Square(256, 256, 128, 3, 1)
	t := Table{
		Title:   "Ablation: machine-model sensitivity of the 16-core GiP/Parallel-GEMM speedup (ID 2)",
		Columns: []string{"HalfPerfAIT \\ SharedBW (GB/s)", "12.8", "25.6", "51.2"},
	}
	for _, knee := range []float64{30, 60, 120} {
		cells := []any{fmt.Sprintf("%.0f", knee)}
		for _, bw := range []float64{12.8, 25.6, 51.2} {
			m := machine.Paper()
			m.HalfPerfAIT = knee
			m.SharedBandwidthGBs = bw
			sp := m.GEMMInParallelTraining(s, 16) / m.ParallelGEMMTraining(s, 16)
			cells = append(cells, sp)
		}
		t.AddRow(cells...)
	}
	// Stencil crossover sensitivity: feature count at which GiP overtakes
	// the stencil, per load-cost setting.
	t2 := Table{
		Title:   "Ablation: stencil/GiP crossover feature count vs modeled load cost",
		Columns: []string{"StencilLoadCost", "crossover Nf (stencil wins below)"},
	}
	for _, lc := range []float64{1.5, 3.0, 6.0} {
		m := machine.Paper()
		m.StencilLoadCost = lc
		cross := 0
		for nf := 8; nf <= 2048; nf *= 2 {
			sp := conv.Square(64, nf, 32, 5, 1)
			if m.Stencil(sp, 16) > m.GEMMInParallel(sp, ait.FP, 16) {
				cross = nf
			}
		}
		t2.AddRow(lc, cross)
	}
	return []Table{t, t2}
}
