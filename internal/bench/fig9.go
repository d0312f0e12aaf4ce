package bench

import (
	"fmt"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/data"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
)

// The five Fig. 9 configurations.
type fig9Config struct {
	name string
	// fp / bp pick the technique per phase for the model; platform scales
	// the baseline's rates (the CAFFE OpenBLAS Parallel-GEMM outruns
	// ADAM+MKL's on this workload in the paper: 273 vs 185 images/sec at
	// their peaks).
	fp, bp   string
	platform float64
}

func fig9Configs() []fig9Config {
	return []fig9Config{
		{"Parallel-GEMM (CAFFE)", "pgemm", "pgemm", 1.0},
		{"Parallel-GEMM (ADAM)", "pgemm", "pgemm", 0.68},
		{"GEMM-in-Parallel (FP and BP)", "gip", "gip", 1.0},
		{"GiP (FP) + Sparse-Kernel (BP)", "gip", "sparse", 1.0},
		{"Stencil (FP) + Sparse-Kernel (BP)", "stencil", "sparse", 1.0},
	}
}

// fig9Cores is Fig. 9's x-axis; 32 is the hyper-threaded point (no extra
// FP units, so the model treats it as 16 physical cores with a small SMT
// latency-hiding bonus for the batch-parallel configurations).
var fig9Cores = []int{1, 2, 4, 8, 16, 32}

// cifarSparsity is the error sparsity of the CIFAR net's conv layers in
// steady training (Fig. 3b: > 85% after epoch 2).
const cifarSparsity = 0.85

// RunFig9 reproduces Fig. 9: end-to-end CIFAR-10 training throughput
// (images/sec) versus core count for the five configurations — modeled on
// the paper's 16-core machine, plus a measured table from real training
// runs on this host.
func RunFig9(o Options) []Table {
	return []Table{fig9Model(o.machineOf()), fig9Measured(o)}
}

func fig9Model(m machine.Machine) Table {
	t := Table{
		Title: "Fig 9 (modeled): end-to-end CIFAR-10 training throughput (images/sec)",
		Note: "conv time from the machine model + fixed non-conv overhead; " +
			"absolute numbers exceed the paper's (framework overheads not modeled) — compare shapes and ratios",
		Columns: coreColsList("Configuration", fig9Cores),
	}
	layers := cifarConvSpecs()
	for _, cfg := range fig9Configs() {
		cells := []any{cfg.name}
		for _, p := range fig9Cores {
			cells = append(cells, fig9ModelThroughput(m, layers, cfg, p))
		}
		t.AddRow(cells...)
	}
	return t
}

func cifarConvSpecs() []conv.Spec {
	var specs []conv.Spec
	for _, l := range Table2() {
		if l.Network == "CIFAR-10" {
			specs = append(specs, l.Spec)
		}
	}
	return specs
}

// fig9ModelThroughput computes modeled images/sec for one configuration.
func fig9ModelThroughput(m machine.Machine, layers []conv.Spec, cfg fig9Config, p int) float64 {
	phys := p
	smt := 1.0
	if p > m.Cores {
		phys = m.Cores
		if cfg.fp != "pgemm" { // batch-parallel configs get a small SMT bonus
			smt = 1.1
		}
	}
	var tImage float64
	for _, s := range layers {
		tImage += fig9PhaseTime(m, s, ait.FP, cfg.fp, cfg.platform, phys)
		tImage += fig9PhaseTime(m, s, ait.BPInput, cfg.bp, cfg.platform, phys)
		tImage += fig9PhaseTime(m, s, ait.BPWeights, cfg.bp, cfg.platform, phys)
	}
	// Non-conv work (pool, ReLU, FC, loss, weight updates): a fixed
	// per-image cost that parallelizes across the batch like GiP.
	const nonConvSeconds = 40e-6
	tImage += nonConvSeconds / float64(phys)
	return smt / tImage
}

func fig9PhaseTime(m machine.Machine, s conv.Spec, phase ait.Phase, tech string, platform float64, p int) float64 {
	flops := float64(ait.MMOf(s, phase).Flops())
	var rate float64 // GFlops per core
	switch tech {
	case "pgemm":
		rate = m.ParallelGEMM(s, phase, p) * platform
	case "gip":
		rate = m.GEMMInParallel(s, phase, p)
	case "stencil":
		if phase == ait.FP {
			rate = m.Stencil(s, p)
		} else {
			rate = m.GEMMInParallel(s, phase, p)
		}
	case "sparse":
		// Dense-equivalent rate: useful work at the sparse kernel's
		// goodput means the dense flop count completes in
		// flops·(1−sp)/goodput seconds.
		goodput := m.SparseGoodput(s, cifarSparsity, p)
		rate = goodput / (1 - cifarSparsity)
	default:
		panic("bench: unknown technique " + tech)
	}
	return flops / (rate * float64(p) * 1e9)
}

// fig9Measured trains the real CIFAR network with each configuration on
// this host and reports measured images/sec.
func fig9Measured(o Options) Table {
	workers := o.workers()
	examples, epochs := 64, 1
	if o.full() {
		examples, epochs = 512, 2
	}
	t := Table{
		Title: "Fig 9 (measured on this host): CIFAR-10 training throughput",
		Note: fmt.Sprintf("%d synthetic images, %d epoch(s), batch 16, %d workers",
			examples, epochs, workers),
		Columns: []string{"Configuration", "images/sec", "final loss"},
	}
	ds := data.CIFAR(examples)
	fp := map[string]core.Strategy{}
	for _, st := range core.FPStrategies(workers) {
		fp[st.Name] = st
	}
	bp := map[string]core.Strategy{}
	for _, st := range core.BPStrategies(workers) {
		bp[st.Name] = st
	}
	configs := []struct {
		name   string
		fp, bp core.Strategy
	}{
		{"Parallel-GEMM (both)", fp["parallel-gemm"], bp["parallel-gemm"]},
		{"GEMM-in-Parallel (both)", fp["gemm-in-parallel"], bp["gemm-in-parallel"]},
		{"GiP (FP) + Sparse (BP)", fp["gemm-in-parallel"], bp["sparse"]},
		{"Stencil (FP) + Sparse (BP)", fp["stencil"], bp["sparse"]},
	}
	for _, cfg := range configs {
		net := buildCIFARNet(cfg.fp, cfg.bp, workers)
		tr := nn.NewTrainer(net, 0.01, 16)
		r := rng.New(0xF199)
		var stats nn.EpochStats
		for e := 0; e < epochs; e++ {
			stats = tr.TrainEpoch(ds, r)
		}
		t.AddRow(cfg.name, stats.ImagesPerSec, stats.Loss)
	}
	return t
}

// buildCIFARNet assembles the Table 2 CIFAR network with every conv layer
// pinned to fp for forward and bp for backward propagation.
func buildCIFARNet(fp, bp core.Strategy, workers int) *nn.Network {
	r := rng.New(0x0C1F)
	specs := cifarConvSpecs()
	pinned := core.FixedPlanner(fp, bp)
	c0 := nn.NewConvCtx("conv0", specs[0], pinned, exec.New(workers), r)
	r0 := nn.NewReLU("relu0", c0.OutDims(), workers)
	p0 := nn.NewMaxPool("pool0", r0.OutDims(), 4, 4, workers)
	c1 := nn.NewConvCtx("conv1", specs[1], pinned, exec.New(workers), r)
	r1 := nn.NewReLU("relu1", c1.OutDims(), workers)
	fc := nn.NewFC("fc0", r1.OutDims(), 10, workers, r)
	return nn.NewNetwork(c0, r0, p0, c1, r1, fc)
}

func coreColsList(first string, cores []int) []string {
	cols := []string{first}
	for _, p := range cores {
		cols = append(cols, fmt.Sprintf("p=%d", p))
	}
	return cols
}
