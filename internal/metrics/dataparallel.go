package metrics

import (
	"strconv"

	"spgcnn/internal/dataparallel"
)

// RecordDataParallel publishes one data-parallel epoch under the spg_dp_*
// namespace: counters for cumulative totals, gauges for last-epoch state,
// and replica-labeled gauges for the straggler surface. It takes the
// trainer's own epoch record: the ring syncs and their wall time, the Eq.
// 9-style skipped-tail waste term, and per-replica barrier wait.
func (r *Registry) RecordDataParallel(s dataparallel.Stats) {
	r.Gauge("spg_dp_replicas", "Data-parallel replica count.").Set(float64(len(s.Replicas)))
	r.Counter("spg_dp_syncs_total", "Parameter synchronization rounds.").Add(float64(s.Syncs))
	r.Counter("spg_dp_allreduce_seconds_total", "Wall-clock seconds spent in parameter syncs.").
		Add(s.AllReduceSeconds)
	r.Counter("spg_dp_skipped_images_total",
		"Trailing examples skipped because they did not fill a global batch (Eq. 9-style waste).").
		Add(float64(s.SkippedImages))
	r.Counter("spg_dp_skipped_conv_flops_total",
		"Convolution work the skipped trailing examples would have cost.").
		Add(s.SkippedConvFlops)
	for _, rs := range s.Replicas {
		r.Gauge("spg_dp_barrier_wait_seconds",
			"Cumulative barrier wait of the last epoch, per replica.",
			"replica", strconv.Itoa(rs.Replica)).Set(rs.BarrierWait)
	}
}
