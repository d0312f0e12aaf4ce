package spgcnn_test

import (
	"testing"

	"spgcnn"
	"spgcnn/internal/tensor"
)

// TestStrategiesTrainIdentically is the end-to-end interchangeability
// check behind the spg-CNN scheduler's freedom: one SGD step on the MNIST
// network must move the weights to the same place (up to float32
// reassociation) no matter which execution strategy runs the
// convolutions.
func TestStrategiesTrainIdentically(t *testing.T) {
	ds := spgcnn.MNISTData(8)

	step := func(strategy string) *spgcnn.Tensor {
		def, err := spgcnn.ParseNet(spgcnn.MNISTNet)
		if err != nil {
			t.Fatal(err)
		}
		opts := spgcnn.BuildOptions{Workers: 2, Seed: 77}
		if strategy != "auto" {
			found := false
			for _, st := range append(spgcnn.FPStrategies(2), spgcnn.BPStrategies(2)...) {
				if st.Name == strategy {
					st := st
					opts.FixedStrategy = &st
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("unknown strategy %q", strategy)
			}
		}
		net, err := spgcnn.BuildNet(def, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := spgcnn.NewTrainer(net, 0.05, 8)
		tr.TrainEpoch(ds, spgcnn.NewRNG(5))
		return net.ConvLayers()[0].W
	}

	ref := step("parallel-gemm")
	for _, name := range []string{"gemm-in-parallel", "stencil", "sparse", "auto"} {
		got := step(name)
		if !tensor.AlmostEqual(ref, got, 1e-3) {
			t.Errorf("strategy %q diverged from parallel-gemm after one epoch (max diff %g)",
				name, tensor.MaxAbsDiff(ref, got))
		}
	}
}

// TestSparsityGrowsOnLongerTraining drives the Fig. 3b mechanism further
// than the quick harness: as the model fits the data, dead ReLUs and
// confident predictions push gradient sparsity up, never dramatically
// down.
func TestSparsityGrowsOnLongerTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	def, err := spgcnn.ParseNet(spgcnn.MNISTNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := spgcnn.StrategyByName("gemm-in-parallel", 2)
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: 2, Seed: 3, FixedStrategy: &st})
	if err != nil {
		t.Fatal(err)
	}
	tr := spgcnn.NewTrainer(net, 0.05, 16)
	ds := spgcnn.MNISTData(128)
	r := spgcnn.NewRNG(9)
	first := tr.TrainEpoch(ds, r)
	var last = first
	for e := 0; e < 8; e++ {
		last = tr.TrainEpoch(ds, r)
	}
	s0, ok0 := first.ConvSparsity["conv0"]
	s1, ok1 := last.ConvSparsity["conv0"]
	if !ok0 || !ok1 {
		t.Fatal("sparsity probes missing")
	}
	if s1 < s0-0.05 {
		t.Fatalf("gradient sparsity fell materially during training: %.3f -> %.3f", s0, s1)
	}
	if s1 < 0.5 {
		t.Fatalf("final sparsity %.3f below the paper's regime", s1)
	}
	if !(last.Accuracy > first.Accuracy) {
		t.Fatalf("accuracy did not improve: %.2f -> %.2f", first.Accuracy, last.Accuracy)
	}
}
