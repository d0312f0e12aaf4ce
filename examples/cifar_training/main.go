// End-to-end CIFAR-10 training (the paper's Fig. 9 workload): the Table 2
// CIFAR network trained on the synthetic dataset, comparing the
// Unfold+Parallel-GEMM baseline configuration against the full spg-CNN
// scheduler, with per-epoch loss, accuracy, throughput and error-gradient
// sparsity.
package main

import (
	"flag"
	"fmt"
	"os"

	"spgcnn"
)

func main() {
	var (
		epochs   = flag.Int("epochs", 3, "training epochs")
		examples = flag.Int("examples", 192, "dataset size")
		workers  = flag.Int("workers", 0, "worker cores (0 = GOMAXPROCS)")
	)
	flag.Parse()

	configs := []struct {
		name     string
		strategy string // "" = spg-CNN auto-tuning
	}{
		{"Parallel-GEMM baseline", "parallel-gemm"},
		{"GEMM-in-Parallel", "gemm-in-parallel"},
		{"spg-CNN (auto-tuned)", ""},
	}

	for _, cfg := range configs {
		fmt.Printf("--- %s ---\n", cfg.name)
		def, err := spgcnn.ParseNet(spgcnn.CIFARNet)
		if err != nil {
			fatal("%v", err)
		}
		opts := spgcnn.BuildOptions{Workers: *workers, Seed: 7}
		if cfg.strategy != "" {
			for _, st := range spgcnn.FPStrategies(max(1, *workers)) {
				if st.Name == cfg.strategy {
					st := st
					opts.FixedStrategy = &st
				}
			}
		}
		net, err := spgcnn.BuildNet(def, opts)
		if err != nil {
			fatal("%v", err)
		}
		ds := spgcnn.CIFARData(*examples)
		tr := spgcnn.NewTrainer(net, 0.01, 16)
		r := spgcnn.NewRNG(11)
		for e := 0; e < *epochs; e++ {
			stats := tr.TrainEpoch(ds, r)
			fmt.Printf("epoch %d: loss %.4f  acc %5.1f%%  %7.1f images/sec",
				stats.Epoch, stats.Loss, stats.Accuracy*100, stats.ImagesPerSec)
			for _, c := range net.ConvLayers() {
				if s, ok := stats.ConvSparsity[c.Name()]; ok {
					fmt.Printf("  %s EO-sparsity %.2f", c.Name(), s)
				}
			}
			fmt.Println()
		}
		// For the auto-tuned run, show what the scheduler deployed.
		if cfg.strategy == "" {
			fmt.Println("scheduler deployments:")
			for _, c := range net.ConvLayers() {
				fpSel, bpSel, ok := c.Selections()
				if !ok {
					continue
				}
				fmt.Printf("  %s: FP %s, BP %s\n", c.Name(),
					fpSel.Best().Strategy.Name, bpSel.Best().Strategy.Name)
			}
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cifar_training: "+format+"\n", args...)
	os.Exit(1)
}
