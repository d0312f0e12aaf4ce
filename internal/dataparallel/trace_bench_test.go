package dataparallel

import (
	"testing"

	"spgcnn/internal/netdef"
	"spgcnn/internal/rng"
	"spgcnn/internal/trace"
)

// benchEpoch drives 2-replica epochs with or without a bound ring
// recorder. Comparing the two pins the flight recorder's step-time
// overhead (budget: <5%; the ledger's bench.trace_overhead_share).
func benchEpoch(b *testing.B, traced bool) {
	def, err := netdef.Parse(tracedNet)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := NewFromDef(def, netdef.BuildOptions{Workers: 1, Seed: 3},
		Config{Replicas: 2, GlobalBatch: 8, LR: 0.01, SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	if traced {
		tr.BindTrace(trace.New(trace.Options{Mode: trace.Ring}))
	}
	r := rng.New(1)
	d := ds{n: 32}
	tr.TrainEpoch(d, r) // warm up: tuning passes, arena growth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch(d, r)
	}
}

func BenchmarkTrainEpochUntraced(b *testing.B)   { benchEpoch(b, false) }
func BenchmarkTrainEpochRingTraced(b *testing.B) { benchEpoch(b, true) }
