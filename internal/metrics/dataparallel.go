package metrics

import (
	"strconv"

	"spgcnn/internal/dataparallel"
)

// RecordDataParallel publishes one data-parallel epoch under the spg_dp_*
// namespace: counters for cumulative totals, gauges for last-epoch state,
// and replica-labeled gauges for the straggler surface. It takes the
// trainer's own epoch record: the reduction subsystem's telemetry (schedule,
// sparse rounds, wire traffic), the Eq. 9-style skipped-tail waste term, and
// the straggler-mitigation loop's evidence (per-replica barrier wait,
// shares, rechunk count).
func (r *Registry) RecordDataParallel(s dataparallel.Stats) {
	r.Gauge("spg_dp_replicas", "Data-parallel replica count.").Set(float64(len(s.Replicas)))
	r.Counter("spg_dp_syncs_total", "Parameter synchronization rounds.").Add(float64(s.Syncs))
	r.Counter("spg_dp_sparse_syncs_total",
		"Synchronization rounds that shipped CT-CSR-compressed parameter deltas.").
		Add(float64(s.SparseSyncs))
	r.Counter("spg_dp_allreduce_seconds_total", "Wall-clock seconds spent in parameter syncs.").
		Add(s.AllReduceSeconds)
	r.Counter("spg_dp_wire_bytes_total",
		"Modeled interconnect traffic of parameter syncs (bytes a scale-out fabric would carry).").
		Add(float64(s.WireBytes))
	r.Counter("spg_dp_skipped_images_total",
		"Trailing examples skipped because they did not fill a global batch (Eq. 9-style waste).").
		Add(float64(s.SkippedImages))
	r.Counter("spg_dp_skipped_conv_flops_total",
		"Convolution work the skipped trailing examples would have cost.").
		Add(s.SkippedConvFlops)
	r.Counter("spg_dp_rechunks_total",
		"Straggler-mitigation share reassignments.").Add(float64(s.Rechunks))
	if s.AllReduceMethod != "" {
		r.Gauge("spg_dp_allreduce_method",
			"Schedule of the last sync (1 = active), labeled by method.",
			"method", s.AllReduceMethod).Set(1)
	}
	if s.MeanDeltaDensity >= 0 {
		r.Gauge("spg_dp_delta_density",
			"Mean measured gradient-delta density of the last epoch's syncs.").
			Set(s.MeanDeltaDensity)
	}
	r.Gauge("spg_dp_staleness_max",
		"Largest fleet step gap observed at a sync (bounded-staleness mode).").
		Set(float64(s.StalenessMax))
	epoch := strconv.Itoa(s.Epoch)
	r.Gauge("spg_dp_wire_bytes_series",
		"Modeled sync wire traffic (per-epoch series).", "epoch", epoch).
		Set(float64(s.WireBytes))
	for _, rs := range s.Replicas {
		replica := strconv.Itoa(rs.Replica)
		r.Gauge("spg_dp_barrier_wait_seconds",
			"Cumulative barrier wait of the last epoch, per replica.",
			"replica", replica).Set(rs.BarrierWait)
		r.Gauge("spg_dp_share",
			"Images-per-step share assigned to the replica after mitigation.",
			"replica", replica).Set(float64(rs.Share))
	}
}
