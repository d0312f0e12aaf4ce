package metrics

import (
	"strings"
	"testing"

	"spgcnn/internal/dataparallel"
	"spgcnn/internal/nn"
)

// fleet builds the per-replica rows of a Stats from barrier waits and shares.
func fleet(waits []float64, shares []int) []dataparallel.ReplicaStats {
	rows := make([]dataparallel.ReplicaStats, len(waits))
	for w := range rows {
		rows[w] = dataparallel.ReplicaStats{Replica: w, BarrierWait: waits[w], Share: shares[w]}
	}
	return rows
}

func TestRecordDataParallel(t *testing.T) {
	r := NewRegistry()
	r.RecordDataParallel(dataparallel.Stats{
		EpochStats: nn.EpochStats{Epoch: 1}, Syncs: 8, SparseSyncs: 3,
		AllReduceSeconds: 0.5, AllReduceMethod: "ring+sparse",
		MeanDeltaDensity: 0.07, WireBytes: 1 << 20,
		SkippedImages: 5, SkippedConvFlops: 1e6,
		Rechunks: 2, StalenessMax: 1,
		Replicas: fleet([]float64{0.1, 0, 0.2, 0.3}, []int{9, 5, 9, 9}),
	})
	r.RecordDataParallel(dataparallel.Stats{
		EpochStats: nn.EpochStats{Epoch: 2}, Syncs: 8, SparseSyncs: 5,
		AllReduceSeconds: 0.25, AllReduceMethod: "ring+sparse",
		MeanDeltaDensity: 0.05, WireBytes: 1 << 19,
		SkippedImages: 5, Rechunks: 1,
		Replicas: fleet([]float64{0.1, 0, 0.2, 0.3}, []int{10, 4, 9, 9}),
	})
	// Counters accumulate across epochs.
	if got := r.Counter("spg_dp_syncs_total", "").Value(); got != 16 {
		t.Fatalf("syncs_total = %v, want 16", got)
	}
	if got := r.Counter("spg_dp_sparse_syncs_total", "").Value(); got != 8 {
		t.Fatalf("sparse_syncs_total = %v, want 8", got)
	}
	if got := r.Counter("spg_dp_skipped_images_total", "").Value(); got != 10 {
		t.Fatalf("skipped_images_total = %v, want 10", got)
	}
	if got := r.Counter("spg_dp_rechunks_total", "").Value(); got != 3 {
		t.Fatalf("rechunks_total = %v, want 3", got)
	}
	if got := r.Counter("spg_dp_wire_bytes_total", "").Value(); got != float64(1<<20+1<<19) {
		t.Fatalf("wire_bytes_total = %v", got)
	}
	// Gauges hold the last epoch's state.
	if got := r.Gauge("spg_dp_replicas", "").Value(); got != 4 {
		t.Fatalf("replicas = %v, want 4", got)
	}
	if got := r.Gauge("spg_dp_delta_density", "").Value(); got != 0.05 {
		t.Fatalf("delta_density = %v, want 0.05", got)
	}
	if got := r.Gauge("spg_dp_share", "", "replica", "1").Value(); got != 4 {
		t.Fatalf("share{replica=1} = %v, want 4", got)
	}
	if got := r.Gauge("spg_dp_barrier_wait_seconds", "", "replica", "3").Value(); got != 0.3 {
		t.Fatalf("barrier_wait{replica=3} = %v, want 0.3", got)
	}
	if got := r.Gauge("spg_dp_allreduce_method", "", "method", "ring+sparse").Value(); got != 1 {
		t.Fatalf("allreduce_method = %v, want 1", got)
	}
}

func TestRecordDataParallelUnknownDensity(t *testing.T) {
	r := NewRegistry()
	r.RecordDataParallel(dataparallel.Stats{EpochStats: nn.EpochStats{Epoch: 1}, Syncs: 4, MeanDeltaDensity: -1})
	// Density gauge must not be registered when no sync measured deltas.
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "spg_dp_delta_density") {
		t.Fatal("density gauge exported for a dense-only run")
	}
	if !strings.Contains(buf.String(), "spg_dp_syncs_total 4") {
		t.Fatalf("syncs counter missing from export:\n%s", buf.String())
	}
}
