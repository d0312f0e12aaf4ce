// Package obs is spg-CNN's plan-drift observatory: continuous
// model-vs-measured agreement tracking for every deployed strategy, with
// automatic re-tune triggers when reality drifts away from the plan.
//
// The §4.4 scheduler and the internal/plan cache stand or fall on the
// machine model (and the one-shot measurement it gates) staying
// representative of the running host. Nothing in the measure-and-deploy
// loop notices when a deployed strategy slows down afterwards — co-tenant
// interference, thermal throttling, GC pressure, or sparsity drifting out
// of the band the verdict was tuned for. The observatory closes that gap:
// it is an exec.Sink beside the metrics registry and the trace emitter
// (exec.Probe.AddSink), reads each layer event's layer, phase and strategy
// fields, converts the deployed strategy's time into a
// measured-vs-predicted ratio using the planner's own analytical rate
// (plan.ModelRate over internal/machine, placed by internal/ait), and
// maintains per-layer/per-phase EWMA agreement statistics bucketed by
// Fig. 1 region and sparsity band.
//
// When the EWMA ratio and the span's own ratio both deviate from the frozen
// baseline by more than DefaultThreshold, on the same side, for
// DefaultWindow consecutive observations, the observatory emits a drift
// event — a trace instant, spg_drift_* metric series, and the OnDrift
// callback. The caller closes that loop with a callback over
// plan.Planner.InvalidateSpec: the drifting verdicts are dropped and marked
// stale, so every layer that deployed one re-plans on its next call instead
// of running the stale verdict.
//
// Detection is RELATIVE to the observed baseline, not to the model's
// absolute prediction: the machine model is calibrated to the paper's
// hardware, so on an arbitrary host the measured/predicted ratio settles
// at some host-specific constant. The observatory freezes that constant at
// the median of the first DefaultWarmup ratios and alarms on departures
// from it — absolute agreement is still reported (Report), it just doesn't
// alarm.
package obs

import (
	"fmt"
	"slices"
	"sync"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/metrics"
	"spgcnn/internal/plan"
	"spgcnn/internal/trace"
)

// DefaultThreshold is the drift alarm factor: an observation breaches when
// the EWMA ratio and the span's own ratio both leave [baseline/t,
// baseline×t] on the same side. 1.5× is far outside run-to-run noise, yet
// a co-tenant stealing half the machine doubles span times.
const DefaultThreshold = 1.5

// DefaultWindow is the number of CONSECUTIVE breaching observations
// required before a drift event fires — one 10× hiccup (a GC cycle, a
// page-fault storm) lifts the EWMA for several spans, but only it breaches.
const DefaultWindow = 3

// DefaultAlpha is the EWMA smoothing factor for the agreement ratio.
const DefaultAlpha = 0.25

// DefaultWarmup is the number of observations of a deployed strategy
// before drift detection arms, its baseline frozen at their median ratio.
const DefaultWarmup = 5

// Options configures an Observatory. The zero value is usable: paper
// machine model, one worker. The detector runs at the Default* constants.
type Options struct {
	// Machine is the analytical model predictions come from. Nil uses
	// machine.Paper() — the same default the planner runs with.
	Machine *machine.Machine
	// Workers is the execution context's worker count, used to turn
	// per-core model rates into wall-time predictions. Zero or negative
	// defaults to 1; bind the real context's Workers().
	Workers int
	// OnDrift, when non-nil, is invoked synchronously (outside the
	// observatory lock, on the goroutine that observed the breaching
	// span) for every drift event — the re-tune trigger seam, typically
	// a closure over plan.Planner.InvalidateSpec(ev.Spec, ev.Phase).
	OnDrift func(DriftEvent)
	// Trace, when non-nil, records drift events as instants on the
	// timeline (category "drift").
	Trace *trace.Emitter
	// Metrics, when non-nil, exports the spg_drift_* series: per-stream
	// agreement gauges and the drift-event counter.
	Metrics *metrics.Registry
}

// DriftEvent describes one fired drift alarm.
type DriftEvent struct {
	// Layer, Phase, Strategy identify the drifting deployment; Spec is the
	// layer's registered geometry.
	Layer    string    `json:"layer"`
	Phase    string    `json:"phase"` // "fp" or "bp"
	Strategy string    `json:"strategy"`
	Spec     conv.Spec `json:"spec"`
	// Region is the deployment's Fig. 1 cell; Band its plan-cache
	// sparsity band at fire time.
	Region int `json:"region"`
	Band   int `json:"band"`
	// Ratio is the EWMA measured/predicted ratio that fired; Baseline the
	// frozen reference it departed from. Ratio/Baseline > 1 means the
	// strategy runs slower than its own steady state (host pressure);
	// < 1 means faster (e.g. interference ended, or sparsity rose).
	Ratio    float64 `json:"ratio"`
	Baseline float64 `json:"baseline"`
	// Observation is the stream's observation count when the event fired.
	Observation int64 `json:"observation"`
}

func (e DriftEvent) String() string {
	return fmt.Sprintf("drift %s/%s [%s, region %d band %d]: ewma %.2fx baseline %.2f at obs %d",
		e.Layer, e.Phase, e.Strategy, e.Region, e.Band, e.Ratio/e.Baseline, e.Baseline, e.Observation)
}

// layerInfo is a registered layer's geometry plus the latest sparsity
// signals the glue feeds in (weight sparsity drives FP model rates and
// bands; gradient sparsity drives BP).
type layerInfo struct {
	spec       conv.Spec
	wSparsity  float64
	eoSparsity float64
}

// streamKey identifies one drift-tracked series: a layer and phase. The
// deployed strategy lives on the stream value — a redeployment resets the
// stream rather than forking it.
type streamKey struct {
	layer string
	phase string
}

// stream is the online state of one (layer, phase) series.
type stream struct {
	strategy  string
	rate      float64 // dense-equivalent GFlops/core under the model
	sparsity  float64 // sparsity the rate was computed at
	ewma      float64
	warm      [DefaultWarmup]float64 // the warm-up ratios
	baseline  float64                // frozen after warm-up; 0 while warming
	obs       int64
	breaches  int
	drifts    int
	measured  float64 // total measured seconds
	predicted float64 // total predicted seconds
	// prev is the deployment this one replaced, reported in its place
	// until this one has an observation of its own; nil after that.
	prev   *stream
	ratioG *metrics.Gauge
	ewmaG  *metrics.Gauge
}

// Observatory implements exec.Sink: attach with ctx.Probe().AddSink so it
// observes the same event stream as the metrics registry and the tracer.
// Safe for concurrent use (data-parallel replicas share one observatory
// exactly as they share one planner).
type Observatory struct {
	opts Options
	mach machine.Machine

	mu       sync.Mutex
	layers   map[string]*layerInfo
	streams  map[streamKey]*stream
	batch    int
	events   []DriftEvent
	eventCtr *metrics.Counter
}

var _ exec.Sink = (*Observatory)(nil)

// New builds an observatory.
func New(opts Options) *Observatory {
	o := &Observatory{
		opts:    opts,
		layers:  make(map[string]*layerInfo),
		streams: make(map[streamKey]*stream),
		batch:   1,
	}
	if opts.Machine != nil {
		o.mach = *opts.Machine
	} else {
		o.mach = machine.Paper()
	}
	if o.opts.Workers < 1 {
		o.opts.Workers = 1
	}
	if r := o.opts.Metrics; r != nil {
		o.eventCtr = r.Counter("spg_drift_events_total",
			"Drift events fired (EWMA agreement ratio left its baseline band).")
	}
	return o
}

// RegisterLayer declares a convolution layer's geometry so its spans can
// be converted into predictions. Spans of unregistered layers are ignored.
func (o *Observatory) RegisterLayer(name string, s conv.Spec) {
	s.MustValidate()
	o.mu.Lock()
	o.layers[name] = &layerInfo{spec: s.Canon()}
	o.mu.Unlock()
}

// SetBatch sets the minibatch size predictions assume. Ragged final
// batches are absorbed by the EWMA and the consecutive-breach window.
func (o *Observatory) SetBatch(n int) {
	if n < 1 {
		n = 1
	}
	o.mu.Lock()
	o.batch = n
	o.mu.Unlock()
}

// SetSparsity updates a layer's sparsity signals: wSparsity is the weight
// sparsity driving FP predictions, eoSparsity the error-gradient sparsity
// driving BP predictions (the Fig. 3b probe's output — feed it per epoch
// from nn.EpochStats.ConvSparsity). A change re-rates the layer's streams
// WITHOUT resetting drift state: model-rate changes from sparsity are part
// of the plan, not drift. Negative values leave the old signal in place.
func (o *Observatory) SetSparsity(layer string, wSparsity, eoSparsity float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	li := o.layers[layer]
	if li == nil {
		return
	}
	if wSparsity >= 0 {
		li.wSparsity = wSparsity
	}
	if eoSparsity >= 0 {
		li.eoSparsity = eoSparsity
	}
	for key, st := range o.streams {
		if key.layer != layer {
			continue
		}
		sp := li.wSparsity
		if key.phase == "bp" {
			sp = li.eoSparsity
		}
		if rate, ok := plan.ModelRate(o.mach, li.spec, key.phase, sp, o.opts.Workers, st.strategy); ok {
			// The EWMA and baseline carry the dimensionless measured/
			// predicted ratio, so they survive the re-rate untouched: when
			// reality follows the model (sparse spans speed up as sparsity
			// rises), the ratio is invariant; when it does not, the
			// departure is genuine model error and SHOULD alarm.
			st.rate = rate
			st.sparsity = sp
		}
	}
}

// Record implements exec.Sink: a layer event of a registered layer's
// deployed strategy is folded into its (layer, phase) stream's agreement
// state. Every other event passes through untouched, and so does a layer
// event whose call ran a planning pass: its time carries the measurement on
// top of the deployed kernel and would poison the EWMA by an order of
// magnitude.
func (o *Observatory) Record(ev exec.Event) {
	if ev.Cat != "layer" || ev.Planned || ev.Strategy == "" {
		return
	}
	layer, phase, strategy, seconds := ev.Layer, ev.Phase, ev.Strategy, ev.Seconds
	var fire *DriftEvent
	o.mu.Lock()
	li := o.layers[layer]
	if li == nil {
		o.mu.Unlock()
		return
	}
	key := streamKey{layer: layer, phase: phase}
	st := o.streams[key]
	if st == nil || st.strategy != strategy {
		// First deployment, or a redeploy (bp-flip, post-drift re-plan):
		// fresh stream state — the old strategy's baseline says nothing
		// about the new one — except the series' drift count, which
		// carries over so the report counts every event it lists.
		next := &stream{strategy: strategy}
		if st != nil {
			next.drifts, next.prev = st.drifts, st
			if st.obs == 0 {
				next.prev = st.prev
			}
		}
		sp := li.wSparsity
		if phase == "bp" {
			sp = li.eoSparsity
		}
		rate, ok := plan.ModelRate(o.mach, li.spec, phase, sp, o.opts.Workers, strategy)
		if !ok {
			// Unmodeled strategy: nothing to compare against. Park a
			// sentinel stream so the lookup stays cheap.
			o.streams[key] = next
			o.mu.Unlock()
			return
		}
		st = next
		st.rate, st.sparsity = rate, sp
		if r := o.opts.Metrics; r != nil {
			st.ratioG = r.Gauge("spg_drift_agreement_ratio",
				"Instantaneous measured/predicted span-time ratio per deployed strategy.",
				"layer", layer, "phase", phase)
			st.ewmaG = r.Gauge("spg_drift_ewma_ratio",
				"EWMA-smoothed measured/predicted span-time ratio per deployed strategy.",
				"layer", layer, "phase", phase)
		}
		o.streams[key] = st
	}
	if st.rate <= 0 { // unmodeled sentinel
		o.mu.Unlock()
		return
	}

	pred := o.predictLocked(li.spec, phase, st.rate)
	if pred <= 0 {
		o.mu.Unlock()
		return
	}
	ratio := seconds / pred
	st.obs++
	st.prev = nil
	st.measured += seconds
	st.predicted += pred
	if st.obs == 1 {
		st.ewma = ratio
	} else {
		st.ewma = DefaultAlpha*ratio + (1-DefaultAlpha)*st.ewma
	}
	if st.ratioG != nil {
		st.ratioG.Set(ratio)
		st.ewmaG.Set(st.ewma)
	}
	switch side := outOfBand(st.ewma, st.baseline); {
	case st.obs <= DefaultWarmup:
		st.warm[st.obs-1] = ratio
		if st.obs == DefaultWarmup {
			w := st.warm
			slices.Sort(w[:])
			st.baseline = w[DefaultWarmup/2]
		}
	case side != 0 && side == outOfBand(ratio, st.baseline):
		st.breaches++
		if st.breaches >= DefaultWindow {
			sp := st.sparsity
			classify := sp
			if phase == "fp" {
				classify = 0 // FP region placement is the dense column
			}
			ev := DriftEvent{
				Layer: layer, Phase: phase, Strategy: strategy,
				Spec:   li.spec,
				Region: int(ait.Classify(li.spec, classify)),
				Band:   ait.Band(sp),
				Ratio:  st.ewma, Baseline: st.baseline,
				Observation: st.obs,
			}
			o.events = append(o.events, ev)
			st.drifts++
			st.breaches = 0
			// Re-arm against the new steady state: baseline moves to the
			// current EWMA so a persistent slowdown doesn't fire every
			// DefaultWindow observations.
			st.baseline = st.ewma
			fire = &ev
		}
	default:
		st.breaches = 0
	}
	tr, cb, ctr := o.opts.Trace, o.opts.OnDrift, o.eventCtr
	o.mu.Unlock()

	if fire != nil {
		if ctr != nil {
			ctr.Inc()
		}
		tr.Instant("drift", "drift/"+layer+"/"+phase, strategy, fire.Ratio/fire.Baseline)
		if cb != nil {
			cb(*fire)
		}
	}
}

// outOfBand reports which side of [baseline/DefaultThreshold,
// baseline×DefaultThreshold] the ratio r lies on: +1 above, -1 below, 0
// inside.
func outOfBand(r, baseline float64) int {
	switch {
	case r > baseline*DefaultThreshold:
		return 1
	case r < baseline/DefaultThreshold:
		return -1
	}
	return 0
}

// predictLocked models the wall time of one whole-batch span: batch ×
// per-image dense flops over the strategy's dense-equivalent rate spread
// across the workers. Callers hold o.mu.
func (o *Observatory) predictLocked(s conv.Spec, phase string, rate float64) float64 {
	var flops float64
	if phase == "fp" {
		flops = float64(s.FlopsFP())
	} else {
		flops = float64(s.FlopsBPInput() + s.FlopsBPWeights())
	}
	return float64(o.batch) * flops / (rate * 1e9 * float64(o.opts.Workers))
}

// Events returns a copy of every drift event fired so far, oldest first.
func (o *Observatory) Events() []DriftEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]DriftEvent(nil), o.events...)
}
