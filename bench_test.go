package spgcnn_test

// One testing.B benchmark per paper table/figure, each driving the same
// runner `spg-bench -exp <id>` uses (quick scale). Analytical/modeled
// experiments cost microseconds per iteration; measured ones execute real
// kernels or training steps. Run with:
//
//	go test -bench=. -benchmem
//
// The rendered outputs (paper-vs-measured) are recorded in EXPERIMENTS.md;
// `go run ./cmd/spg-bench -all` regenerates them.

import (
	"testing"

	"spgcnn"
)

func benchExperiment(b *testing.B, id string) {
	e, err := spgcnn.LookupExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := spgcnn.ExperimentOptions{Scale: "quick"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// Analytical experiments (the §3 characterization and the machine model).

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig3a(b *testing.B)  { benchExperiment(b, "fig3a") }
func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)  { benchExperiment(b, "fig4c") }
func BenchmarkFig4d(b *testing.B)  { benchExperiment(b, "fig4d") }
func BenchmarkFig4e(b *testing.B)  { benchExperiment(b, "fig4e") }
func BenchmarkFig4f(b *testing.B)  { benchExperiment(b, "fig4f") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Measured experiments (real kernels / real training on this host).

func BenchmarkFig3b(b *testing.B)        { benchExperiment(b, "fig3b") }
func BenchmarkFig4Measured(b *testing.B) { benchExperiment(b, "fig4-measured") }
func BenchmarkFig8(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)         { benchExperiment(b, "fig9") }

// Ablations and extensions (see DESIGN.md §6).

func BenchmarkAblationSpatial(b *testing.B) { benchExperiment(b, "ablation-spatial") }
func BenchmarkAblationRTile(b *testing.B)   { benchExperiment(b, "ablation-rtile") }
func BenchmarkAblationCTCSR(b *testing.B)   { benchExperiment(b, "ablation-ctcsr") }
func BenchmarkAblationMachine(b *testing.B) { benchExperiment(b, "ablation-machine") }
func BenchmarkGoodputTrain(b *testing.B)    { benchExperiment(b, "goodput") }

// Per-technique kernel micro-benchmarks on the paper's CIFAR-10 layer 0
// geometry (Table 2: 36,64,3,5,1) — the head-to-head behind Fig. 8's
// CIFAR bars, with GFlops and goodput reported as custom metrics.

// cifarL0 returns the layer's fixtures as the one-element batches the kernel
// seam takes, so the timed loops below build nothing.
func cifarL0() (spec spgcnn.ConvSpec, w, dw *spgcnn.Tensor, ins, outs, eis, eosDense, eosSparse []*spgcnn.Tensor) {
	spec = spgcnn.Square(36, 64, 3, 5, 1)
	r := spgcnn.NewRNG(1)
	in := spgcnn.NewInput(spec)
	in.FillNormal(r, 0, 1)
	w = spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.1)
	dw = spgcnn.NewWeights(spec)
	eoDense := spgcnn.NewOutput(spec)
	eoDense.FillNormal(r, 0, 1)
	eoSparse := eoDense.Clone()
	eoSparse.Sparsify(r, 0.85)
	one := func(t *spgcnn.Tensor) []*spgcnn.Tensor { return []*spgcnn.Tensor{t} }
	return spec, w, dw, one(in), one(spgcnn.NewOutput(spec)), one(spgcnn.NewInput(spec)), one(eoDense), one(eoSparse)
}

func benchKernelFP(b *testing.B, k spgcnn.Kernel, w *spgcnn.Tensor, ins, outs []*spgcnn.Tensor) {
	c := spgcnn.NewCtx(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
	b.ReportMetric(float64(k.Spec().FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

func BenchmarkKernelFPUnfoldGEMM(b *testing.B) {
	spec, w, _, ins, outs, _, _, _ := cifarL0()
	benchKernelFP(b, spgcnn.NewUnfoldGEMM(spec, 1), w, ins, outs)
}

func BenchmarkKernelFPStencil(b *testing.B) {
	spec, w, _, ins, outs, _, _, _ := cifarL0()
	benchKernelFP(b, spgcnn.NewStencil(spec), w, ins, outs)
}

func benchKernelBP(b *testing.B, k spgcnn.Kernel, w, dw *spgcnn.Tensor, ins, eis, eos []*spgcnn.Tensor) {
	c := spgcnn.NewCtx(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardInputBatch(c, eis, eos, w)
		k.BackwardWeightsBatch(c, dw, eos, ins)
	}
}

func BenchmarkKernelBPDense(b *testing.B) {
	spec, w, dw, ins, _, eis, eosDense, _ := cifarL0()
	benchKernelBP(b, spgcnn.NewUnfoldGEMM(spec, 1), w, dw, ins, eis, eosDense)
}

func BenchmarkKernelBPSparse85(b *testing.B) {
	spec, w, dw, ins, _, eis, _, eosSparse := cifarL0()
	benchKernelBP(b, spgcnn.NewSparse(spec, 0), w, dw, ins, eis, eosSparse)
	useful := float64(2 * spgcnn.SparseNonZeroFlops(spec, eosSparse[0].NNZ()))
	b.ReportMetric(useful*float64(b.N)/b.Elapsed().Seconds()/1e9, "goodput-GFlops")
}

// End-to-end training-step benchmark on the CIFAR network (the unit of
// Fig. 9's throughput), via the public training API.

func BenchmarkTrainStepCIFAR(b *testing.B) {
	def, err := spgcnn.ParseNet(spgcnn.CIFARNet)
	if err != nil {
		b.Fatal(err)
	}
	st, _ := spgcnn.StrategyByName("gemm-in-parallel", 1)
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr := spgcnn.NewTrainer(net, 0.01, 4)
	ds := spgcnn.CIFARData(4)
	r := spgcnn.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := tr.TrainEpoch(ds, r)
		b.ReportMetric(stats.ImagesPerSec, "images/sec")
	}
}

// BenchmarkTrainStepAllocs measures steady-state allocations of one full
// FP+BP step on the CIFAR-10 layer-0 geometry with the paper's composed
// deployment (Stencil-Kernel FP + Sparse-Kernel BP). allocs/op is the
// headline number (the ledger's runtime.allocs_per_op tracks it end to
// end): it stays near zero because every engine draws scratch from the
// execution context's arena instead of the Go allocator.
func BenchmarkTrainStepAllocs(b *testing.B) {
	spec := spgcnn.Square(36, 64, 3, 5, 1) // CIFAR-10 layer 0 (Table 2)
	r := spgcnn.NewRNG(9)
	const batch = 4
	var ins, outs, eis, eos []*spgcnn.Tensor
	for i := 0; i < batch; i++ {
		in := spgcnn.NewInput(spec)
		in.FillNormal(r, 0, 1)
		eo := spgcnn.NewOutput(spec)
		eo.FillNormal(r, 0, 1)
		eo.Sparsify(r, 0.85)
		ins = append(ins, in)
		eos = append(eos, eo)
		outs = append(outs, spgcnn.NewOutput(spec))
		eis = append(eis, spgcnn.NewInput(spec))
	}
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.1)
	dw := spgcnn.NewWeights(spec)

	stencil, _ := spgcnn.StrategyByName("stencil", 2)
	sparse, _ := spgcnn.StrategyByName("sparse", 2)
	fe := spgcnn.NewExecCtx(stencil, spec, spgcnn.NewCtx(2))
	be := spgcnn.NewExecCtx(sparse, spec, spgcnn.NewCtx(2))

	step := func() {
		fe.Forward(outs, ins, w)
		be.BackwardInput(eis, eos, w)
		be.BackwardWeights(dw, eos, ins)
	}
	step() // warm-up: grow scratch to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
