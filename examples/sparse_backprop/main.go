// Sparse back-propagation goodput demo (the paper's §4.2 / Fig. 4e-f
// story): sweep the error-gradient sparsity of one convolution and compare
// the dense Unfold+GEMM backward pass against the Sparse-Kernel, reporting
// wall time, throughput and goodput (Eq. 9) for each.
package main

import (
	"flag"
	"fmt"
	"time"

	"spgcnn"
)

func main() {
	var (
		n    = flag.Int("n", 32, "input spatial size")
		nf   = flag.Int("nf", 32, "output features")
		nc   = flag.Int("nc", 32, "input channels")
		f    = flag.Int("f", 4, "kernel size")
		reps = flag.Int("reps", 3, "timing repetitions (min taken)")
	)
	flag.Parse()

	spec := spgcnn.Square(*n, *nf, *nc, *f, 1) // defaults = Table 1 ID 0
	fmt.Printf("convolution %v — BP = input-error (Eq. 3) + delta-weights (Eq. 4)\n", spec)
	fmt.Printf("dense BP flop count: %d\n\n", spec.FlopsBPInput()+spec.FlopsBPWeights())

	r := spgcnn.NewRNG(1)
	in := spgcnn.NewInput(spec)
	in.FillNormal(r, 0, 1)
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.1)
	ctx := spgcnn.NewCtx(1)
	ins := []*spgcnn.Tensor{in}
	eis := []*spgcnn.Tensor{spgcnn.NewInput(spec)}
	dw := spgcnn.NewWeights(spec)

	dense := spgcnn.NewUnfoldGEMM(spec, 1)
	sparse := spgcnn.NewSparse(spec, 0)

	fmt.Printf("%-9s  %-12s  %-12s  %-14s  %-14s  %s\n",
		"sparsity", "dense ms", "sparse ms", "dense goodput", "sparse goodput", "speedup")
	for _, sp := range []float64{0, 0.5, 0.75, 0.85, 0.9, 0.95, 0.99} {
		eo := spgcnn.NewOutput(spec)
		eo.FillNormal(r, 0, 1)
		eo.Sparsify(r, sp)
		eos := []*spgcnn.Tensor{eo}

		tDense := timeIt(*reps, func() {
			dense.BackwardInputBatch(ctx, eis, eos, w)
			dense.BackwardWeightsBatch(ctx, dw, eos, ins)
		})
		tSparse := timeIt(*reps, func() {
			sparse.BackwardInputBatch(ctx, eis, eos, w)
			sparse.BackwardWeightsBatch(ctx, dw, eos, ins)
		})

		// Goodput (Eq. 9): non-zero flops over elapsed time. The dense
		// kernel spends the full flop budget but only the non-zero part
		// is useful (Eq. 10's bound); the sparse kernel only ever runs
		// the useful part.
		useful := float64(2 * spgcnn.SparseNonZeroFlops(spec, eo.NNZ()))
		fmt.Printf("%8.2f  %9.3f    %9.3f    %8.2f GF/s   %8.2f GF/s   %6.2fx\n",
			eo.Sparsity(), tDense*1e3, tSparse*1e3,
			useful/tDense/1e9, useful/tSparse/1e9, tDense/tSparse)
	}
	fmt.Println("\n(dense time is sparsity-independent: it multiplies every zero;")
	fmt.Println(" the sparse kernel's floor at extreme sparsity is the layout-transform cost)")
}

func timeIt(reps int, fn func()) float64 {
	fn()
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		el := time.Since(start).Seconds()
		if i == 0 || el < best {
			best = el
		}
	}
	return best
}
