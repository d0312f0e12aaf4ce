// Quickstart: characterize a convolution, generate kernels for it, verify
// they agree, and let the spg-CNN scheduler pick the fastest — the
// library's core loop in ~60 lines.
package main

import (
	"fmt"

	"spgcnn"
)

func main() {
	// CIFAR-10's first convolution layer (paper Table 2): 36x36 RGB input,
	// 64 features, 5x5 kernel, stride 1.
	spec := spgcnn.Square(36, 64, 3, 5, 1)

	// 1. Characterize it (paper §3): where does it sit in the AIT x
	// sparsity design space, and what does that predict?
	a := spgcnn.Analyze(spec)
	fmt.Printf("spec %v\n", spec)
	fmt.Printf("  intrinsic AIT %.0f, after unfolding %.0f (r = %.2f)\n",
		a.IntrinsicAIT, a.UnfoldAIT, a.Ratio)
	fmt.Printf("  dense region %v -> %v\n", a.DenseRegion, a.DenseRegion.Props().Recommendations)
	fmt.Printf("  sparse region %v -> %v\n", a.SparseRegion, a.SparseRegion.Props().Recommendations)

	// 2. Generate kernels and run them on the same data.
	r := spgcnn.NewRNG(1)
	in := spgcnn.NewInput(spec)
	in.FillNormal(r, 0, 1)
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.1)

	baseline := spgcnn.NewUnfoldGEMM(spec, 1) // the Unfold+GEMM baseline
	stencil := spgcnn.NewStencil(spec)        // §4.3's generated FP kernel

	// Kernels are stateless plans: every call takes the execution context
	// (workers + scratch arena) and a batch, here of one sample.
	ctx := spgcnn.NewCtx(1)
	ins := []*spgcnn.Tensor{in}
	outA := spgcnn.NewOutput(spec)
	outB := spgcnn.NewOutput(spec)
	baseline.ForwardBatch(ctx, []*spgcnn.Tensor{outA}, ins, w)
	stencil.ForwardBatch(ctx, []*spgcnn.Tensor{outB}, ins, w)
	maxDiff := float32(0)
	for i := range outA.Data {
		d := outA.Data[i] - outB.Data[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("kernels agree: max |diff| = %g across %d outputs\n", maxDiff, outA.Len())

	// 3. Back-propagation with sparse error gradients: the Sparse-Kernel
	// touches only the non-zeros.
	eo := spgcnn.NewOutput(spec)
	eo.FillNormal(r, 0, 1)
	eo.Sparsify(r, 0.85) // the sparsity level real training reaches (Fig. 3b)
	sparse := spgcnn.NewSparse(spec, 0)
	ei := spgcnn.NewInput(spec)
	sparse.BackwardInputBatch(ctx, []*spgcnn.Tensor{ei}, []*spgcnn.Tensor{eo}, w)
	fmt.Printf("sparse BP: EO is %.0f%% zeros; EI computed from %d non-zeros\n",
		eo.Sparsity()*100, eo.NNZ())

	// 4. Or let spg-CNN's scheduler measure and choose (§4.4).
	auto := spgcnn.NewAutoConv(spec, 2)
	outs := []*spgcnn.Tensor{spgcnn.NewOutput(spec)}
	auto.Forward(outs, ins, w)
	fmt.Println("scheduler measurements (FP):")
	for _, t := range auto.FPSelection().Timings {
		fmt.Printf("  %-18s %8.3f ms\n", t.Strategy.Name, t.Seconds*1e3)
	}
	fmt.Printf("deployed: %s\n", auto.FPSelection().Best().Strategy.Name)
}
