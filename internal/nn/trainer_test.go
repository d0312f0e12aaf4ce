package nn

import (
	"math"
	"testing"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestTrainEpochLearnsAndReports(t *testing.T) {
	net := tinyTrainNet(rng.New(1))
	tr := NewTrainer(net, 0.05, 4)
	ds := &syntheticDS{n: 32, classes: 4, dims: net.InDims()}
	r := rng.New(2)
	first := tr.TrainEpoch(ds, r)
	var last EpochStats
	for e := 0; e < 5; e++ {
		last = tr.TrainEpoch(ds, r)
	}
	if !(last.Loss < first.Loss) {
		t.Fatalf("loss did not fall: %v -> %v", first.Loss, last.Loss)
	}
	if last.Epoch != 6 {
		t.Fatalf("epoch counter = %d", last.Epoch)
	}
	if last.Images != 32 || last.ImagesPerSec <= 0 || last.Seconds <= 0 {
		t.Fatalf("throughput accounting wrong: %+v", last)
	}
	if _, ok := last.ConvSparsity["conv0"]; !ok {
		t.Fatal("sparsity probe missing")
	}
}

func TestGoodputBelowDenseThroughput(t *testing.T) {
	// Goodput counts BP work discounted by sparsity, so with any ReLU
	// in the net, goodput < dense rate, and both are positive (Eq. 10).
	net := tinyTrainNet(rng.New(3))
	tr := NewTrainer(net, 0.02, 4)
	ds := &syntheticDS{n: 16, classes: 4, dims: net.InDims()}
	stats := tr.TrainEpoch(ds, rng.New(4))
	if stats.ConvGFlops <= 0 || stats.ConvGoodputGFlops <= 0 {
		t.Fatalf("non-positive rates: %+v", stats)
	}
	if stats.ConvGoodputGFlops >= stats.ConvGFlops {
		t.Fatalf("goodput %v not below dense rate %v", stats.ConvGoodputGFlops, stats.ConvGFlops)
	}
	// Consistency with the probe: useful/dense ratio matches
	// (FP + (1-s)·BP) / (FP + BP) = (1 + 2(1-s)) / 3 for one conv layer.
	s := stats.ConvSparsity["conv0"]
	wantRatio := (1 + 2*(1-s)) / 3
	gotRatio := stats.ConvGoodputGFlops / stats.ConvGFlops
	if diff := gotRatio - wantRatio; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("goodput ratio %v, want %v (sparsity %v)", gotRatio, wantRatio, s)
	}
}

func TestEvaluateDoesNotTrain(t *testing.T) {
	net := tinyTrainNet(rng.New(5))
	tr := NewTrainer(net, 0.05, 4)
	ds := &syntheticDS{n: 16, classes: 4, dims: net.InDims()}
	before := net.ConvLayers()[0].W.Clone()
	loss1, acc1 := tr.Evaluate(ds)
	loss2, acc2 := tr.Evaluate(ds)
	if loss1 != loss2 || acc1 != acc2 {
		t.Fatal("Evaluate is not deterministic")
	}
	after := net.ConvLayers()[0].W
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("Evaluate modified weights")
		}
	}
}

func TestTrainerBatchFloor(t *testing.T) {
	net := tinyTrainNet(rng.New(6))
	tr := NewTrainer(net, 0.05, 0)
	if tr.BatchSize != 1 {
		t.Fatalf("batch floor = %d", tr.BatchSize)
	}
}

// TestStepIsTheEpoch pins TrainEpoch as nothing but a loop of Step over the
// shuffled order: a hand loop on a twin network lands on the same weights
// and the same loss, bit for bit, tail batch included.
func TestStepIsTheEpoch(t *testing.T) {
	const batch, lr = 4, 0.05
	epochNet, handNet := tinyTrainNet(rng.New(7)), tinyTrainNet(rng.New(7))
	ds := &syntheticDS{n: 18, classes: 4, dims: epochNet.InDims()}

	stats := NewTrainer(epochNet, lr, batch).TrainEpoch(ds, rng.New(8))

	hand := NewTrainer(handNet, lr, batch)
	order := rng.New(8).Perm(ds.Len())
	var lossSum float64
	for lo := 0; lo < len(order); lo += batch {
		l, _ := hand.Step(ds, order[lo:min(lo+batch, len(order))], lr)
		lossSum += l
	}
	if got := lossSum / float64(ds.Len()); got != stats.Loss {
		t.Fatalf("hand loop loss %v, TrainEpoch loss %v", got, stats.Loss)
	}
	ep, hp := epochNet.Parameters(), handNet.Parameters()
	for j := range ep {
		if d := tensor.MaxAbsDiff(ep[j].Tensor, hp[j].Tensor); d != 0 {
			t.Fatalf("parameter %q differs by %g between TrainEpoch and the Step loop", ep[j].Name, d)
		}
	}
}

// TestEpochAccountIsFinite: the account never divides by an empty dataset
// or a zero-length epoch — every rate is a finite number the Prometheus
// text can carry — and a tail batch is trained and counted.
func TestEpochAccountIsFinite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		images int
	}{
		{"empty", 0, 0},
		{"one image", 1, 1},
		{"tail batch", 6, 6}, // batch 4: one full step, one of 2
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := tinyTrainNet(rng.New(9))
			tr := NewTrainer(net, 0.05, 4)
			ds := &syntheticDS{n: tc.n, classes: 4, dims: net.InDims()}
			stats := tr.TrainEpoch(ds, rng.New(10))
			if stats.Images != tc.images {
				t.Fatalf("images = %d, want %d", stats.Images, tc.images)
			}
			evalLoss, evalAcc := tr.Evaluate(ds)
			for name, v := range map[string]float64{
				"Loss": stats.Loss, "Accuracy": stats.Accuracy, "ImagesPerSec": stats.ImagesPerSec,
				"ConvGFlops": stats.ConvGFlops, "ConvGoodputGFlops": stats.ConvGoodputGFlops,
				"Evaluate loss": evalLoss, "Evaluate accuracy": evalAcc,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v", name, v)
				}
			}
			if (stats.Loss > 0) != (tc.n > 0) {
				t.Errorf("loss %v on %d images", stats.Loss, tc.n)
			}
		})
	}
	// A zero-length epoch: work done, no time passed.
	zero := EpochStats{Images: 8}
	zero.Account(4, 2, tinyTrainNet(rng.New(9)))
	if zero.Loss != 0.5 || zero.Accuracy != 0.25 || zero.ImagesPerSec != 0 || zero.ConvGFlops != 0 || zero.ConvGoodputGFlops != 0 {
		t.Fatalf("zero-second epoch account = %+v", zero)
	}
}
