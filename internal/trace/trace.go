// Package trace is spg-CNN's execution-timeline subsystem: a low-overhead
// flight recorder that captures begin/end events for every layer × phase ×
// strategy execution, planner measurement pass, arena growth and
// data-parallel synchronization barrier, each stamped with the training
// step, replica, worker and the live gradient-sparsity band. An Emitter is
// an exec.Sink: attached to a context's probe (Attach) it lands every typed
// probe event on the timeline under the event's own category and name.
//
// The metrics registry answers "THAT a phase is slow"; this package
// answers "WHEN, and on WHICH replica". Captures export as Chrome/Perfetto
// trace-event JSON (WriteJSON) and feed two analyzers: a straggler
// detector for data-parallel barriers (Stragglers) and a goodput-waste
// attributor that splits the paper's Eq. 9 dense-vs-useful gap per layer
// (GoodputWaste). Regions additionally mirror into Go's runtime/trace and
// carry pprof labels, so native Go tooling sees the same spans.
//
// The recorder is lock-minimal: events land in sharded buffers, each
// emitter handle bound to its own shard, so concurrent replicas never
// contend on one mutex. Ring mode bounds memory by overwriting the oldest
// events (a flight recorder — always capturing, never growing); Full mode
// keeps everything up to a hard cap and counts drops beyond it.
package trace

import (
	"context"
	"fmt"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the recorder's retention policy.
type Mode int

const (
	// Full keeps every event up to MaxEvents, then drops new ones.
	Full Mode = iota
	// Ring bounds memory at RingSize events per shard, overwriting the
	// oldest — flight-recorder semantics.
	Ring
)

// String renders the mode as its CLI spelling.
func (m Mode) String() string {
	if m == Ring {
		return "ring"
	}
	return "full"
}

// ParseMode parses the CLI spelling ("ring" or "full").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ring":
		return Ring, nil
	case "full":
		return Full, nil
	}
	return Full, fmt.Errorf("trace: unknown mode %q (want ring or full)", s)
}

// DefRingSize is the default per-shard event capacity in Ring mode.
const DefRingSize = 8192

// DefMaxEvents is the default total event cap in Full mode.
const DefMaxEvents = 1 << 20

// DefShards is the default shard count; emitters are distributed
// round-robin, so up to DefShards concurrent emitters never share a lock.
const DefShards = 16

// Options configures a Recorder. The zero value is a Full-mode recorder
// with the default caps.
type Options struct {
	// Mode is the retention policy (default Full).
	Mode Mode
	// RingSize is the per-shard event capacity in Ring mode
	// (default DefRingSize).
	RingSize int
	// MaxEvents caps the total buffered events in Full mode
	// (default DefMaxEvents).
	MaxEvents int
	// Shards is the buffer shard count (default DefShards).
	Shards int
}

// Event is one recorded timeline entry. Complete events (Dur > 0 or
// Phase 'X') are spans; Phase 'i' events are instants.
type Event struct {
	// Name identifies the span, e.g. "layer/conv0/bp/sparse", "step",
	// "allreduce", "plan/bp/measure".
	Name string
	// Cat groups events for filtering: "layer", "core", "tune", "step",
	// "sync", "plan", "arena", "choice", "epoch", "sparsity".
	Cat string
	// Phase is the Chrome trace-event phase: 'X' complete, 'i' instant.
	Phase byte
	// Ts is the start time in nanoseconds since the capture started.
	Ts int64
	// Dur is the span duration in nanoseconds (0 for instants).
	Dur int64
	// Replica is the data-parallel replica index; -1 marks
	// coordinator/planner events that belong to no replica.
	Replica int32
	// Worker is the worker index within the replica.
	Worker int32
	// Step is the global training step at emit time.
	Step int64
	// Band is the live gradient-sparsity band at emit time.
	Band int32
	// Detail is a free-form label (winning strategy, layer name, …).
	Detail string
	// Value is a numeric payload (sparsity, bytes, seconds, images).
	Value float64
}

// Stats summarizes a recorder's buffer state — the numbers
// metrics.BindTrace exports.
type Stats struct {
	// Emitted counts every event offered to the recorder.
	Emitted uint64
	// Buffered counts events currently held.
	Buffered uint64
	// Capacity is the total buffer capacity in events.
	Capacity uint64
	// Overwritten counts ring-mode overwrites of old events.
	Overwritten uint64
	// Dropped counts full-mode events discarded at the cap.
	Dropped uint64
}

// shard is one independently-locked event buffer. Emitters are bound to
// shards round-robin, so concurrent replicas write to different shards.
type shard struct {
	mu      sync.Mutex
	buf     []Event
	next    int  // ring cursor
	wrapped bool // ring has lapped at least once
	_       [40]byte
}

// Recorder is the capture buffer. Construct with New; safe for concurrent
// use. A nil *Recorder is inert: emitters built from it drop everything.
type Recorder struct {
	mode      Mode
	ringSize  int
	maxEvents int
	start     time.Time

	step atomic.Int64
	band atomic.Int32

	nextShard   atomic.Uint32
	shards      []shard
	emitted     atomic.Uint64
	overwritten atomic.Uint64
	dropped     atomic.Uint64
	buffered    atomic.Int64

	mu     sync.Mutex
	layers []LayerMeta
}

// LayerMeta is the static per-layer flop accounting the goodput-waste
// attributor needs: dense per-image flop counts of the forward pass and
// the two backward computations combined.
type LayerMeta struct {
	Name    string `json:"name"`
	FPFlops int64  `json:"fpFlops"`
	BPFlops int64  `json:"bpFlops"`
}

// New builds a recorder. The capture clock starts now.
func New(o Options) *Recorder {
	if o.RingSize <= 0 {
		o.RingSize = DefRingSize
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = DefMaxEvents
	}
	if o.Shards <= 0 {
		o.Shards = DefShards
	}
	return &Recorder{
		mode:      o.Mode,
		ringSize:  o.RingSize,
		maxEvents: o.MaxEvents,
		start:     time.Now(),
		shards:    make([]shard, o.Shards),
	}
}

// Mode reports the retention policy.
func (r *Recorder) Mode() Mode {
	if r == nil {
		return Full
	}
	return r.mode
}

// SetStep publishes the global training step stamped onto subsequent
// events.
func (r *Recorder) SetStep(step int64) {
	if r != nil {
		r.step.Store(step)
	}
}

// SetBand publishes the live gradient-sparsity band stamped onto
// subsequent events.
func (r *Recorder) SetBand(band int) {
	if r != nil {
		r.band.Store(int32(band))
	}
}

// AddLayerMeta registers one layer's flop accounting for the waste
// attributor; it travels with the capture.
func (r *Recorder) AddLayerMeta(m LayerMeta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.layers {
		if r.layers[i].Name == m.Name {
			r.layers[i] = m
			return
		}
	}
	r.layers = append(r.layers, m)
}

// Layers returns the registered layer metadata.
func (r *Recorder) Layers() []LayerMeta {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]LayerMeta(nil), r.layers...)
}

// Emitter returns a handle stamping events with the given replica and
// worker. Each emitter binds to one buffer shard (round-robin), so
// emitters on different goroutines do not contend. Replica -1 marks
// coordinator/planner events. Emitters from a nil recorder are inert.
func (r *Recorder) Emitter(replica, worker int) *Emitter {
	if r == nil {
		return nil
	}
	idx := int(r.nextShard.Add(1)-1) % len(r.shards)
	return &Emitter{r: r, shard: &r.shards[idx], replica: int32(replica), worker: int32(worker)}
}

// now returns nanoseconds since capture start.
func (r *Recorder) now() int64 { return int64(time.Since(r.start)) }

// record lands one stamped event in a shard, applying the retention
// policy.
func (r *Recorder) record(s *shard, ev Event) {
	r.emitted.Add(1)
	s.mu.Lock()
	switch r.mode {
	case Ring:
		if s.buf == nil {
			s.buf = make([]Event, 0, r.ringSize)
		}
		if len(s.buf) < r.ringSize {
			s.buf = append(s.buf, ev)
			r.buffered.Add(1)
		} else {
			s.buf[s.next] = ev
			s.wrapped = true
			r.overwritten.Add(1)
		}
		s.next++
		if s.next == r.ringSize {
			s.next = 0
		}
	default: // Full
		if int(r.buffered.Load()) >= r.maxEvents {
			r.dropped.Add(1)
		} else {
			s.buf = append(s.buf, ev)
			r.buffered.Add(1)
		}
	}
	s.mu.Unlock()
}

// Stats snapshots the recorder's buffer counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	capTotal := uint64(r.maxEvents)
	if r.mode == Ring {
		capTotal = uint64(r.ringSize) * uint64(len(r.shards))
	}
	return Stats{
		Emitted:     r.emitted.Load(),
		Buffered:    uint64(r.buffered.Load()),
		Capacity:    capTotal,
		Overwritten: r.overwritten.Load(),
		Dropped:     r.dropped.Load(),
	}
}

// Events returns every buffered event in deterministic order: ascending
// start time, with (replica, worker, cat, name, dur, detail) breaking
// ties. Ring shards are unwrapped oldest-first before the merge.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if s.wrapped {
			out = append(out, s.buf[s.next:]...)
			out = append(out, s.buf[:s.next]...)
		} else {
			out = append(out, s.buf...)
		}
		s.mu.Unlock()
	}
	SortEvents(out)
	return out
}

// Capture snapshots the whole recorder state for export or analysis.
func (r *Recorder) Capture() Capture {
	return Capture{
		Events: r.Events(),
		Layers: r.Layers(),
		Mode:   r.Mode().String(),
		Stats:  r.Stats(),
	}
}

// Capture is a self-contained trace: the event timeline plus the layer
// flop metadata and buffer accounting it was recorded under.
type Capture struct {
	Events []Event
	Layers []LayerMeta
	Mode   string
	Stats  Stats
}

// Emitter stamps and records events for one (replica, worker) identity.
// All methods are nil-safe, so instrumentation points need no guards.
type Emitter struct {
	r       *Recorder
	shard   *shard
	replica int32
	worker  int32
}

// Replica reports the emitter's replica stamp.
func (e *Emitter) Replica() int {
	if e == nil {
		return -1
	}
	return int(e.replica)
}

func (e *Emitter) emit(ev Event) {
	if e == nil || e.r == nil {
		return
	}
	ev.Replica = e.replica
	ev.Worker = e.worker
	ev.Step = e.r.step.Load()
	ev.Band = e.r.band.Load()
	e.r.record(e.shard, ev)
}

// SpanDetail records a complete event with an explicit start and duration,
// carrying a label and a numeric payload (both may be zero).
func (e *Emitter) SpanDetail(cat, name, detail string, value float64, start time.Time, dur time.Duration) {
	if e == nil || e.r == nil {
		return
	}
	ts := int64(start.Sub(e.r.start))
	if ts < 0 {
		ts = 0
	}
	e.emit(Event{Name: name, Cat: cat, Phase: 'X', Ts: ts, Dur: int64(dur),
		Detail: detail, Value: value})
}

// End records a complete event stamped at its END: the span finished just
// now and lasted the given seconds. This is how post-hoc observations
// (exec.Probe spans, which report elapsed time on completion) land on the
// timeline without changing their call sites.
func (e *Emitter) End(cat, name string, seconds float64) {
	if e == nil || e.r == nil {
		return
	}
	dur := int64(seconds * 1e9)
	ts := e.r.now() - dur
	if ts < 0 {
		ts = 0
	}
	e.emit(Event{Name: name, Cat: cat, Phase: 'X', Ts: ts, Dur: dur})
}

// Instant records a zero-duration marker.
func (e *Emitter) Instant(cat, name, detail string, value float64) {
	if e == nil || e.r == nil {
		return
	}
	e.emit(Event{Name: name, Cat: cat, Phase: 'i', Ts: e.r.now(),
		Detail: detail, Value: value})
}

// Region runs fn as a traced span AND as a runtime/trace region with
// pprof labels (spg_replica, spg_region), so a capture taken with `go
// tool trace` or a labeled CPU profile shows the same structure this
// recorder sees. With a nil emitter fn just runs.
func (e *Emitter) Region(cat, name string, fn func()) {
	if e == nil || e.r == nil {
		WithRegion(name, fn)
		return
	}
	labels := pprof.Labels(
		"spg_replica", strconv.Itoa(int(e.replica)),
		"spg_region", name,
	)
	start := time.Now()
	pprof.Do(context.Background(), labels, func(ctx context.Context) {
		defer rtrace.StartRegion(ctx, name).End()
		fn()
	})
	e.SpanDetail(cat, name, "", 0, start, time.Since(start))
}

// WithRegion runs fn inside a runtime/trace region (no event recording) —
// the integration hook for code paths that must show up in `go tool
// trace` even when no recorder is attached. A no-op wrapper when Go
// execution tracing is inactive.
func WithRegion(name string, fn func()) {
	defer rtrace.StartRegion(context.Background(), name).End()
	fn()
}
