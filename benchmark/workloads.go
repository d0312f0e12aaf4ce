package main

import "time"

// workloadCfg is one workload's fixed sizing. Every rate, batch size and
// limit is a constant here, never calibrated at run time, so a parent commit
// and a change see identical load. All of it is sized for the 2-core
// reference host: workers, replicas x threads and connections never exceed 2.
type workloadCfg struct {
	Name    string
	LimitMs float64 // an op slower than this misses slo_ok_share
	// Segments is how many equal parts the window is split into, each
	// measured on its own from-scratch set-up. setup_s is the median of the
	// set-ups and op_ms_p50 the mean of the segments' medians.
	Segments int

	// Training workloads.
	Nets     []netSrc
	Examples int // images per epoch
	Batch    int
	Workers  int
	LR       float32

	// Serving workloads.
	Net          netSrc
	Replicas     int
	Threads      int
	MaxBatch     int
	MaxDelay     time.Duration
	Telemetry    bool // metrics registry + context/runtime/planner metrics (spg-serve default)
	Instrumented bool // additionally ring-mode trace recorder + report-only observatory (-trace -drift)
	Conns        int
	// RatesHz makes the workload open loop: seeded Poisson arrivals at these
	// fixed rates in turn, the middle one for half the window.
	RatesHz []float64
}

func (c workloadCfg) train() bool { return len(c.Nets) > 0 }
func (c workloadCfg) open() bool  { return len(c.RatesHz) > 0 }

const (
	// warmSteps are the discarded steps of a training set-up: the first
	// plans every layer, the second is steady.
	warmSteps = 2
	// warmRequests are the discarded requests per connection of a serving
	// set-up.
	warmRequests = 50
	// poolSize is the number of distinct seeded request inputs.
	poolSize = 64
	// gateTol bounds planned-vs-reference logits on the fixed batch;
	// respTol bounds a served response against the oracle.
	gateTol = 1e-4
	respTol = 1e-3
)

func workloads() []workloadCfg {
	train := workloadCfg{Segments: 8, Examples: 128, Batch: 16, Workers: 2, LR: 0.01}

	cifar := train
	cifar.Name, cifar.LimitMs, cifar.Nets = "train_cifar", 150, []netSrc{cifarSrc()}

	zoo := train
	zoo.Name, zoo.LimitMs, zoo.Nets, zoo.Segments = "train_zoo", 600, zooSrcs(), 5

	return []workloadCfg{
		cifar,
		zoo,
		{
			Name: "serve_mnist_closed", LimitMs: 5, Segments: 8, Net: mnistSrc(),
			Replicas: 1, Threads: 1, MaxBatch: 8, MaxDelay: 0,
			Telemetry: true, Instrumented: true, Conns: 2,
		},
		{
			Name: "serve_cifar_open", LimitMs: 50, Segments: 5, Net: cifarSrc(),
			Replicas: 2, Threads: 1, MaxBatch: 8, MaxDelay: 2 * time.Millisecond,
			Telemetry: true, Conns: 2,
			// 8/16/24 % of the quiet host's 2-connection capacity: low enough
			// that the shared VM at 40 % of its speed still carries r3 with
			// no backlog (see README.md, Workloads).
			RatesHz: []float64{20, 40, 60},
		},
	}
}

func findWorkload(name string) (workloadCfg, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadCfg{}, false
}
