package metrics

import (
	"runtime"

	"spgcnn/internal/exec"
)

var _ exec.Sink = (*Registry)(nil)

// Record implements exec.Sink: a scheduler choice increments the choice
// counter of its phase and strategy and sets its time gauge; any other
// event is one observation of the span ev.Name.
func (r *Registry) Record(ev exec.Event) {
	if ev.Cat != "choice" {
		r.observeSpan(ev.Name, ev.Seconds)
		return
	}
	r.Counter("spg_scheduler_choice_total",
		"Scheduler deployment decisions by phase and winning strategy.",
		"phase", ev.Phase, "strategy", ev.Strategy).Inc()
	r.Gauge("spg_scheduler_choice_seconds",
		"Measured time of the most recent winning strategy per phase.",
		"phase", ev.Phase, "strategy", ev.Strategy).Set(ev.Seconds)
}

// Bind wires an execution context into the registry: the registry attaches
// to the context's probe as a sink, beside any trace emitter or observatory,
// and the arena's cumulative acquisition statistics plus basic process
// gauges export as render-time gauges. Call once per (ctx, registry) pair,
// before the run.
func Bind(c *exec.Ctx, r *Registry) {
	c.Probe().AddSink(r)
	r.GaugeFunc("spg_workers", "Worker pool size of the bound execution context.",
		func() float64 { return float64(c.Workers()) })
	r.GaugeFunc("spg_arena_gets_total", "Cumulative scratch acquisitions from the bound arena.",
		func() float64 { return float64(c.Arena().Stats().Gets) })
	r.GaugeFunc("spg_arena_hits_total", "Scratch acquisitions served from arena free lists.",
		func() float64 { return float64(c.Arena().Stats().Hits) })
	r.GaugeFunc("spg_arena_outstanding", "Arena buffers currently checked out.",
		func() float64 { return float64(c.Arena().Stats().Outstanding) })
	r.GaugeFunc("spg_arena_grows_total", "Arena acquisitions that missed every free list and allocated fresh memory.",
		func() float64 { return float64(c.Arena().Stats().Grows) })
	r.GaugeFunc("spg_arena_grow_bytes_total", "Bytes of fresh memory the arena allocated on free-list misses.",
		func() float64 { return float64(c.Arena().Stats().GrowBytes) })
	r.GaugeFunc("spg_goroutines", "Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}
