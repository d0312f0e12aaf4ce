// Package metrics is spg-CNN's observability subsystem: a process-local
// registry of counters, gauges and fixed-bucket latency histograms, plus one
// latency histogram per span name that aggregates every event the execution
// contexts' probes record (the registry is an exec.Sink; see Bind). The
// registry renders itself in Prometheus text exposition format (see
// WritePrometheus and Serve), so a training or benchmark run can be
// scraped live; per-epoch goodput accounting is recorded through
// RecordEpoch.
//
// All registry operations are safe for concurrent use, and the hot paths
// (Counter.Add, Gauge.Set, Histogram.Observe) are lock-free or take only a
// per-instrument mutex, so instrumentation does not serialize the worker
// pool.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds every metric of one process (or one run). The zero value
// is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
	spans    map[string]*Histogram
	spanMeta map[string]*spanExtrema
}

type family struct {
	name, help, typ string
	series          map[string]*instrument
	order           []string
}

type instrument struct {
	labels  []string // alternating key, value
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		spans:    make(map[string]*Histogram),
		spanMeta: make(map[string]*spanExtrema),
	}
}

// Counter is a monotonically non-decreasing value.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1
	sum    float64
	count  uint64
}

// DefSpanBuckets are the default latency buckets (seconds) for span
// histograms: 50µs to 10s, roughly logarithmic — wide enough for both a
// single MNIST-layer kernel call and a full ImageNet-100 epoch phase.
func DefSpanBuckets() []float64 {
	return []float64{
		50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds, ascending (no +Inf entry)
	Counts []uint64  // per-bucket counts; last entry is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// spanExtrema tracks the min/max observation of one span path (histograms
// bucketize, which loses the extremes the scheduler cares about).
type spanExtrema struct {
	mu       sync.Mutex
	min, max float64
	seen     bool
}

func (e *spanExtrema) observe(v float64) {
	e.mu.Lock()
	if !e.seen || v < e.min {
		e.min = v
	}
	if !e.seen || v > e.max {
		e.max = v
	}
	e.seen = true
	e.mu.Unlock()
}

// Counter returns (registering on first use) the counter with the given
// name and label pairs. Re-registering the same name with a different
// instrument type panics.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ins := r.instrument(name, help, "counter", labels)
	return ins.counter
}

// Gauge returns (registering on first use) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ins := r.instrument(name, help, "gauge", labels)
	return ins.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// render — how cheap cumulative sources (arena stats, runtime counters)
// export without being polled.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	ins := r.instrument(name, help, "gaugefunc", labels)
	r.mu.Lock()
	ins.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket bounds and label pairs. Bounds are only consulted on
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	ins := r.instrumentWith(name, help, "histogram", labels, bounds)
	return ins.hist
}

func (r *Registry) instrument(name, help, typ string, labels []string) *instrument {
	return r.instrumentWith(name, help, typ, labels, nil)
}

func (r *Registry) instrumentWith(name, help, typ string, labels []string, bounds []float64) *instrument {
	name = SanitizeName(name)
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %q", name))
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*instrument)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, f.typ, typ))
	}
	ins := f.series[key]
	if ins == nil {
		ins = &instrument{labels: append([]string(nil), labels...)}
		switch typ {
		case "counter":
			ins.counter = &Counter{}
		case "gauge", "gaugefunc":
			ins.gauge = &Gauge{}
		case "histogram":
			if bounds == nil {
				bounds = DefSpanBuckets()
			}
			ins.hist = newHistogram(bounds)
		}
		f.series[key] = ins
		f.order = append(f.order, key)
	}
	return ins
}

// observeSpan records one timed observation of the span path (e.g.
// "layer/conv1/fp/stencil" — layer, phase, strategy) into the span
// histogram family.
func (r *Registry) observeSpan(path string, seconds float64) {
	r.mu.Lock()
	h := r.spans[path]
	e := r.spanMeta[path]
	if h == nil {
		h = newHistogram(DefSpanBuckets())
		e = &spanExtrema{}
		r.spans[path] = h
		r.spanMeta[path] = e
	}
	r.mu.Unlock()
	h.Observe(seconds)
	e.observe(seconds)
}

// SpanStats is the aggregate of one span path.
type SpanStats struct {
	Path    string
	Calls   uint64
	Seconds float64
	Min     float64
	Max     float64
}

// Span returns the named span's aggregate.
func (r *Registry) Span(path string) (SpanStats, bool) {
	r.mu.Lock()
	h := r.spans[path]
	e := r.spanMeta[path]
	r.mu.Unlock()
	if h == nil {
		return SpanStats{}, false
	}
	snap := h.Snapshot()
	st := SpanStats{Path: path, Calls: snap.Count, Seconds: snap.Sum}
	e.mu.Lock()
	st.Min, st.Max = e.min, e.max
	e.mu.Unlock()
	return st, true
}

// SpanPaths returns every observed span path, sorted.
func (r *Registry) SpanPaths() []string {
	r.mu.Lock()
	paths := make([]string, 0, len(r.spans))
	for p := range r.spans {
		paths = append(paths, p)
	}
	r.mu.Unlock()
	sort.Strings(paths)
	return paths
}

// SanitizeName maps an arbitrary string onto the Prometheus metric-name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func SanitizeName(name string) string {
	if name == "" {
		panic("metrics: empty metric name")
	}
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return strings.Join(labels, "\xff")
}
