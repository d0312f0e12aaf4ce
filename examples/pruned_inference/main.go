// Pruned inference: train a small network, magnitude-prune its convolution
// weights, and compare the dense GEMM-in-Parallel strategy against the
// sparse-weight strategy (the engine the planner deploys on pruned layers)
// across pruning levels — the weight-sparsity counterpart (paper §6,
// related work) of the error-sparsity the Sparse-Kernel exploits during
// training.
package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spgcnn"
)

func main() {
	// 1. Train the MNIST network briefly so the weights mean something.
	def, err := spgcnn.ParseNet(spgcnn.MNISTNet)
	if err != nil {
		panic(err)
	}
	denseSt, _ := spgcnn.StrategyByName("gemm-in-parallel", 1)
	sparseSt, _ := spgcnn.StrategyByName("sparse-weight", 1)
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: 1, Seed: 7, FixedStrategy: &denseSt})
	if err != nil {
		panic(err)
	}
	ds := spgcnn.MNISTData(128)
	tr := spgcnn.NewTrainer(net, 0.05, 16)
	r := spgcnn.NewRNG(3)
	for e := 0; e < 4; e++ {
		tr.TrainEpoch(ds, r)
	}
	_, baseAcc := tr.Evaluate(ds)
	fmt.Printf("trained MNIST net: accuracy %.1f%%\n\n", baseAcc*100)

	cv := net.ConvLayers()[0]
	spec := cv.Spec()
	ctx := spgcnn.NewCtx(1)
	dense := spgcnn.NewExecCtx(denseSt, spec, ctx)
	sparse := spgcnn.NewExecCtx(sparseSt, spec, ctx)

	in := spgcnn.NewInput(spec)
	out := spgcnn.NewOutput(spec)
	img := spgcnn.NewTensor(1, 28, 28)
	ds.Image(0, img)
	copy(in.Data, img.Data)
	ins, outs := []*spgcnn.Tensor{in}, []*spgcnn.Tensor{out}

	fmt.Printf("dense = %s, sparse = %s\n", denseSt.Name, sparseSt.Name)
	fmt.Printf("%-8s %-8s %-12s %-12s %-10s %s\n",
		"pruned", "taps", "dense ms", "sparse ms", "speedup", "max |out diff|")
	for _, frac := range []float64{0, 0.5, 0.8, 0.9, 0.95} {
		pruned := magnitudePrune(cv.W.Clone(), frac)
		pruned.Bump() // tracked weights: the tap compression is cached after the first call

		tDense := timeIt(5, func() { dense.Forward(outs, ins, pruned) })
		ref := out.Clone()
		tSparse := timeIt(5, func() { sparse.Forward(outs, ins, pruned) })

		maxDiff := 0.0
		for i := range out.Data {
			d := math.Abs(float64(out.Data[i] - ref.Data[i]))
			if d > maxDiff {
				maxDiff = d
			}
		}
		fmt.Printf("%7.0f%% %-8d %-12.3f %-12.3f %-10.2f %g\n",
			frac*100, pruned.NNZ(), tDense*1e3, tSparse*1e3, tDense/tSparse, maxDiff)
	}
	fmt.Println("\n(both strategies compute the identical pruned convolution, bit for bit;")
	fmt.Println(" the sparse one's time falls with the surviving tap count)")
}

// magnitudePrune zeroes the fraction of smallest-magnitude weights.
func magnitudePrune(w *spgcnn.Tensor, frac float64) *spgcnn.Tensor {
	if frac <= 0 {
		return w
	}
	mags := make([]float64, len(w.Data))
	for i, v := range w.Data {
		mags[i] = math.Abs(float64(v))
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	cut := sorted[int(frac*float64(len(sorted)))]
	for i := range w.Data {
		if mags[i] <= cut {
			w.Data[i] = 0
		}
	}
	return w
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
