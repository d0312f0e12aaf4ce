package bench

import (
	"fmt"
	"sort"
	"sync"

	"spgcnn/internal/core"
	"spgcnn/internal/machine"
	"spgcnn/internal/par"
)

// Options configures an experiment run.
type Options struct {
	// Scale is "quick" (CI-friendly; default) or "full".
	Scale string
	// Workers is the host parallelism for measured experiments
	// (default: GOMAXPROCS).
	Workers int
	// Machine selects the model behind the modeled figures: "paper" (the
	// default: the paper's 16-core Xeon) or "host" (calibrated to this
	// machine by a quick probe).
	Machine string
}

func (o Options) full() bool { return o.Scale == "full" }

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return par.MaxWorkers()
}

var (
	hostMachineOnce sync.Once
	hostMachine     machine.Machine
)

// machineOf returns the machine model the options select.
func (o Options) machineOf() machine.Machine {
	if o.Machine == "host" {
		hostMachineOnce.Do(func() { hostMachine = machine.CalibrateHost() })
		return hostMachine
	}
	return machine.Paper()
}

// fixedSerialStrategy returns the GEMM-in-Parallel strategy (serial
// kernels, batch parallel) — the neutral executable configuration used
// when an experiment needs *a* correct engine and measures something else
// (e.g. the Fig. 3b sparsity trajectories).
func fixedSerialStrategy(workers int) core.Strategy {
	st, _ := core.StrategyByName("gemm-in-parallel", workers)
	return st
}

// Experiment kinds, by how reproducible the numbers are. Deterministic
// kinds get strict tolerance-band comparison in baseline checks; measured
// kinds vary with the host and only get structural + sanity checks.
const (
	// KindAnalytical is pure closed-form math or a worked example on fixed
	// inputs: byte-deterministic everywhere.
	KindAnalytical = "analytical"
	// KindModeled evaluates the calibrated machine model: deterministic
	// when the paper machine is selected, host-dependent otherwise.
	KindModeled = "modeled"
	// KindMeasured times real kernels or training runs on this host.
	KindMeasured = "measured"
	// KindMixed combines modeled and measured series in one artifact.
	KindMixed = "mixed"
)

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID   string
	Desc string
	Kind string
	Run  func(Options) []Table
}

// Experiments returns every experiment, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: convolution AIT characterization (analytical)", KindAnalytical, RunTable1},
		{"fig1", "Fig 1: AIT x sparsity design-space regions (analytical)", KindAnalytical, RunFig1},
		{"fig2", "Fig 2: unfolding + O = W*U^T worked example (executed)", KindAnalytical, RunFig2},
		{"fig5", "Fig 5a: CT-CSR layout worked example (executed)", KindAnalytical, RunFig5},
		{"fig6", "Fig 6: pointer-shifting trace worked example", KindAnalytical, RunFig6},
		{"fig7", "Fig 7: generated stencil basic-block plans", KindAnalytical, RunFig7},
		{"fig3a", "Fig 3a: Parallel-GEMM scalability (modeled)", KindModeled, RunFig3a},
		{"fig3b", "Fig 3b: gradient sparsity across epochs (measured training)", KindMeasured, RunFig3b},
		{"fig4a", "Fig 4a: GEMM-in-Parallel scalability (modeled)", KindModeled, RunFig4a},
		{"fig4b", "Fig 4b: GiP speedup over Parallel-GEMM (modeled)", KindModeled, RunFig4b},
		{"fig4c", "Fig 4c: Stencil-Kernel scalability (modeled)", KindModeled, RunFig4c},
		{"fig4d", "Fig 4d: Stencil speedup over GiP (modeled)", KindModeled, RunFig4d},
		{"fig4e", "Fig 4e: Sparse-Kernel goodput vs sparsity (modeled)", KindModeled, RunFig4e},
		{"fig4f", "Fig 4f: Sparse speedup over GiP vs sparsity (modeled)", KindModeled, RunFig4f},
		{"fig4-measured", "Fig 4d/4f analogues measured on this host (single-kernel timings)", KindMeasured, RunFig4Measured},
		{"table2", "Table 2: benchmark network layers (analytical)", KindAnalytical, RunTable2},
		{"fig8", "Fig 8: per-layer speedups on real networks (modeled + measured)", KindMixed, RunFig8},
		{"fig9", "Fig 9: end-to-end CIFAR-10 throughput (modeled + measured)", KindMixed, RunFig9},
		{"ablation-spatial", "Ablation: stencil vs unfold speedup vs spatial extent (measured)", KindMeasured, RunAblationSpatial},
		{"ablation-rtile", "Ablation: stencil register-tile sweep vs generator choice (measured)", KindMeasured, RunAblationRTile},
		{"ablation-ctcsr", "Ablation: CT-CSR column-tile width sweep (measured)", KindMeasured, RunAblationCTCSR},
		{"ablation-machine", "Ablation: machine-model sensitivity study (modeled)", KindModeled, RunAblationMachine},
		{"goodput", "Goodput across training: dense vs sparse BP (measured)", KindMeasured, RunGoodputTrain},
		{"scaleout", "Scale-out (Fig 4 analogue): CT-CSR exchange wire bytes, alpha-beta cluster allreduce curves (modeled)", KindModeled, RunScaleout},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
