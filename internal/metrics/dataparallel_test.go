package metrics

import (
	"testing"

	"spgcnn/internal/dataparallel"
	"spgcnn/internal/nn"
)

// fleet builds the per-replica rows of a Stats from barrier waits.
func fleet(waits []float64) []dataparallel.ReplicaStats {
	rows := make([]dataparallel.ReplicaStats, len(waits))
	for w := range rows {
		rows[w] = dataparallel.ReplicaStats{Replica: w, BarrierWait: waits[w]}
	}
	return rows
}

func TestRecordDataParallel(t *testing.T) {
	r := NewRegistry()
	r.RecordDataParallel(dataparallel.Stats{
		EpochStats: nn.EpochStats{Epoch: 1}, Syncs: 8, AllReduceSeconds: 0.5,
		SkippedImages: 5, SkippedConvFlops: 1e6,
		Replicas: fleet([]float64{0.1, 0, 0.2, 0.3}),
	})
	r.RecordDataParallel(dataparallel.Stats{
		EpochStats: nn.EpochStats{Epoch: 2}, Syncs: 8, AllReduceSeconds: 0.25,
		SkippedImages: 5,
		Replicas:      fleet([]float64{0.1, 0, 0.2, 0.3}),
	})
	// Counters accumulate across epochs.
	if got := r.Counter("spg_dp_syncs_total", "").Value(); got != 16 {
		t.Fatalf("syncs_total = %v, want 16", got)
	}
	if got := r.Counter("spg_dp_allreduce_seconds_total", "").Value(); got != 0.75 {
		t.Fatalf("allreduce_seconds_total = %v, want 0.75", got)
	}
	if got := r.Counter("spg_dp_skipped_images_total", "").Value(); got != 10 {
		t.Fatalf("skipped_images_total = %v, want 10", got)
	}
	// Gauges hold the last epoch's state.
	if got := r.Gauge("spg_dp_replicas", "").Value(); got != 4 {
		t.Fatalf("replicas = %v, want 4", got)
	}
	if got := r.Gauge("spg_dp_barrier_wait_seconds", "", "replica", "3").Value(); got != 0.3 {
		t.Fatalf("barrier_wait{replica=3} = %v, want 0.3", got)
	}
}
