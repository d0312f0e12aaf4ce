package dataparallel

import (
	"testing"
	"time"

	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// TestAsyncBoundedStalenessTrains runs the bounded-staleness mode and
// checks the invariants the protocol promises: the epoch trains every
// image, syncs happen, and the final alignment sync leaves every replica
// in lockstep.
func TestAsyncBoundedStalenessTrains(t *testing.T) {
	for _, k := range []int{1, 3} {
		dp, err := New(func(int) *nn.Network { return buildNet(5) }, Config{
			Replicas: 4, GlobalBatch: 8, LR: 0.05, SyncEvery: 2, Staleness: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		// OnStep fires where the fleet is quiescent: at every sync.
		quiescent := 0
		dp.OnStep = func(int64) { quiescent++ }
		data := ds{n: 64}
		r := rng.New(6)
		first := dp.TrainEpoch(data, r)
		if quiescent != first.Syncs || first.Steps != 8 {
			t.Fatalf("K=%d: OnStep fired %d times over %d syncs, %d steps", k, quiescent, first.Syncs, first.Steps)
		}
		if first.Images != 64 {
			t.Fatalf("K=%d: trained %d images, want 64", k, first.Images)
		}
		if first.Syncs == 0 {
			t.Fatalf("K=%d: no syncs in async epoch", k)
		}
		if first.StalenessMax > k {
			t.Fatalf("K=%d: observed staleness %d exceeds the bound", k, first.StalenessMax)
		}
		ref := dp.Replica(0).Parameters()
		for i := 1; i < 4; i++ {
			ps := dp.Replica(i).Parameters()
			for j := range ps {
				if tensor.MaxAbsDiff(ref[j].Tensor, ps[j].Tensor) != 0 {
					t.Fatalf("K=%d: replica %d out of lockstep after async epoch", k, i)
				}
			}
		}
		var last Stats
		for e := 0; e < 4; e++ {
			last = dp.TrainEpoch(data, r)
		}
		if !(last.Loss < first.Loss) {
			t.Fatalf("K=%d: async mode did not learn: %v -> %v", k, first.Loss, last.Loss)
		}
	}
}

// TestAsyncToleratesStraggler checks that an injected straggler does not
// stall the fast replicas step-for-step: the async path must complete and
// keep the staleness bound.
func TestAsyncToleratesStraggler(t *testing.T) {
	dp, err := New(func(int) *nn.Network { return buildNet(5) }, Config{
		Replicas: 4, GlobalBatch: 16, LR: 0.05, SyncEvery: 2, Staleness: 2,
		InjectSlowReplica: 2, InjectSlowPerImage: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := dp.TrainEpoch(ds{n: 64}, rng.New(8))
	if stats.Images != 64 {
		t.Fatalf("trained %d images, want 64", stats.Images)
	}
	if stats.StalenessMax > 2 {
		t.Fatalf("staleness bound violated: %d", stats.StalenessMax)
	}
	ref := dp.Replica(0).Parameters()
	for i := 1; i < 4; i++ {
		ps := dp.Replica(i).Parameters()
		for j := range ps {
			if tensor.MaxAbsDiff(ref[j].Tensor, ps[j].Tensor) != 0 {
				t.Fatalf("replica %d out of lockstep after async epoch", i)
			}
		}
	}
}

// TestAsyncSparseSync combines bounded staleness with the CT-CSR delta
// exchange.
func TestAsyncSparseSync(t *testing.T) {
	dp, err := New(func(int) *nn.Network { return buildNet(5) }, Config{
		Replicas: 2, GlobalBatch: 8, LR: 0.05, SyncEvery: 2, Staleness: 1,
		AllReduce: MethodRing, SparseSync: SparseForce,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := dp.TrainEpoch(ds{n: 32}, rng.New(9))
	if stats.SparseSyncs == 0 {
		t.Fatalf("forced sparse mode never shipped deltas: %+v", stats)
	}
	if stats.MeanDeltaDensity < 0 {
		t.Fatal("no density measured")
	}
}
