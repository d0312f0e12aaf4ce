package metrics

import (
	"strconv"

	"spgcnn/internal/nn"
)

// RecordEpoch publishes one epoch's goodput accounting: "current value"
// gauges for dashboards plus an epoch-labeled series of every sample, so a
// single scrape at the end of a run still recovers the whole trajectory.
// It takes the trainer's own record: wall-clock progress (images/sec),
// model progress (loss, accuracy) and the paper's Eq. 9 split between dense
// convolution throughput and the useful subset of it.
func (r *Registry) RecordEpoch(s nn.EpochStats) {
	// Mean output-error sparsity across conv layers (0 when none reported).
	var meanSparsity float64
	for _, sp := range s.ConvSparsity {
		meanSparsity += sp
	}
	if n := len(s.ConvSparsity); n > 0 {
		meanSparsity /= float64(n)
	}
	set := func(name, help string, v float64) {
		r.Gauge(name, help).Set(v)
		r.Gauge(name+"_series", help+" (per-epoch series)",
			"epoch", strconv.Itoa(s.Epoch)).Set(v)
	}
	r.Gauge("spg_epoch", "Most recently completed training epoch.").Set(float64(s.Epoch))
	r.Counter("spg_images_total", "Training examples processed.").Add(float64(s.Images))
	r.Counter("spg_train_seconds_total", "Wall-clock seconds spent training.").Add(s.Seconds)
	set("spg_images_per_sec", "Training throughput of the last epoch.", s.ImagesPerSec)
	set("spg_loss", "Mean training loss of the last epoch.", s.Loss)
	set("spg_accuracy", "Training accuracy of the last epoch.", s.Accuracy)
	set("spg_conv_dense_gflops", "Dense convolution work rate of the last epoch.", s.ConvGFlops)
	set("spg_conv_goodput_gflops",
		"Useful convolution work rate of the last epoch (Eq. 9: BP discounted by gradient sparsity).",
		s.ConvGoodputGFlops)
	set("spg_eo_sparsity", "Mean conv output-error gradient sparsity of the last epoch.", meanSparsity)
}
