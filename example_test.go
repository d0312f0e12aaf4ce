package spgcnn_test

import (
	"fmt"

	"spgcnn"
)

// Characterize a convolution the way the paper's §3 does: intrinsic
// arithmetic intensity, the fraction unfolding preserves, and the Fig. 1
// region with its prescribed techniques.
func ExampleAnalyze() {
	a := spgcnn.Analyze(spgcnn.Square(32, 32, 32, 4, 1)) // Table 1, ID 0
	fmt.Printf("intrinsic AIT %.0f\n", a.IntrinsicAIT)
	fmt.Printf("ratio r %.3f\n", a.Ratio)
	fmt.Printf("dense %v, sparse %v\n", a.DenseRegion, a.SparseRegion)
	fmt.Printf("prescription: %v\n", a.SparseRegion.Props().Recommendations)
	// Output:
	// intrinsic AIT 362
	// ratio r 0.084
	// dense Region 4, sparse Region 5
	// prescription: [Stencil-Kernel (FP) Sparse-Kernel (BP)]
}

// Generate a Stencil-Kernel and verify it agrees with the Unfold+GEMM
// baseline — every kernel in the library computes the identical
// convolution.
func ExampleNewStencil() {
	spec := spgcnn.Square(12, 4, 2, 3, 1)
	r := spgcnn.NewRNG(1)
	in := spgcnn.NewInput(spec)
	in.FillNormal(r, 0, 1)
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.5)

	a := spgcnn.NewOutput(spec)
	b := spgcnn.NewOutput(spec)
	ctx := spgcnn.NewCtx(1)
	ins := []*spgcnn.Tensor{in}
	spgcnn.NewStencil(spec).ForwardBatch(ctx, []*spgcnn.Tensor{a}, ins, w)
	spgcnn.NewUnfoldGEMM(spec, 1).ForwardBatch(ctx, []*spgcnn.Tensor{b}, ins, w)

	maxDiff := float32(0)
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Println("kernels agree:", maxDiff < 1e-4)
	// Output:
	// kernels agree: true
}

// One execution context serves every layer: the two convolutions below
// have different geometries, yet their batch calls draw scratch from the
// same size-classed arena, so the second layer (and every later training
// step) reuses the buffers the first acquired instead of allocating.
func ExampleCtx() {
	ctx := spgcnn.NewCtx(2)
	layer0 := spgcnn.Square(16, 8, 3, 5, 1)
	layer1 := spgcnn.Square(12, 16, 8, 3, 1)
	r := spgcnn.NewRNG(7)

	run := func(spec spgcnn.ConvSpec, k spgcnn.Kernel) {
		const batch = 2
		var ins, outs []*spgcnn.Tensor
		for i := 0; i < batch; i++ {
			in := spgcnn.NewInput(spec)
			in.FillNormal(r, 0, 1)
			ins = append(ins, in)
			outs = append(outs, spgcnn.NewOutput(spec))
		}
		w := spgcnn.NewWeights(spec)
		w.FillNormal(r, 0, 0.5)
		k.ForwardBatch(ctx, outs, ins, w)
	}

	run(layer0, spgcnn.NewStencil(layer0))
	before := ctx.Arena().Stats()
	run(layer1, spgcnn.NewUnfoldGEMM(layer1, 1))
	run(layer0, spgcnn.NewStencil(layer0)) // steady state: all scratch reused
	after := ctx.Arena().Stats()

	fmt.Println("later layers acquired scratch:", after.Gets > before.Gets)
	fmt.Println("served from free lists:", after.Hits > before.Hits)
	fmt.Println("buffers leaked:", after.Outstanding)
	// Output:
	// later layers acquired scratch: true
	// served from free lists: true
	// buffers leaked: 0
}

// The Sparse-Kernel touches only the non-zero error gradients; Eq. 9's
// goodput numerator counts exactly that work.
func ExampleSparseNonZeroFlops() {
	spec := spgcnn.Square(36, 64, 3, 5, 1) // CIFAR-10 layer 0
	dense := spec.FlopsBPInput()
	useful := spgcnn.SparseNonZeroFlops(spec, 100) // 100 surviving gradients
	fmt.Printf("dense BP flops:  %d\n", dense)
	fmt.Printf("useful at nnz=100: %d\n", useful)
	// Output:
	// dense BP flops:  9830400
	// useful at nnz=100: 15000
	_ = useful
}

// Parse a network description and inspect its structure.
func ExampleParseNet() {
	def, err := spgcnn.ParseNet(`
name: "tiny"
input { channels: 1 height: 8 width: 8 }
layer { name: "c" type: "conv" features: 2 kernel: 3 }
layer { type: "relu" }
layer { type: "fc" outputs: 4 }
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(def.Name, len(def.Layers), "layers")
	// Output:
	// tiny 3 layers
}
