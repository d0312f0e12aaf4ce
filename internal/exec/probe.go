package exec

import (
	"sync"
	"time"
)

// Probe is the lightweight instrumentation point carried by a Ctx. It
// records one thing, the Event: timed spans (aggregated by name) and the
// scheduler's choice events (kept in order), and hands each event as it is
// recorded to every attached Sink. It also owns the one clock (Now) every
// span, measurement pass and training-loop timer reads. All methods but
// SetClock are safe for concurrent use, and all are nil-safe, so
// instrumentation points never need guarding.
type Probe struct {
	clock   func() time.Duration // nil: the runtime's monotonic clock
	mu      sync.Mutex
	spans   map[string]*Span
	choices []Event
	sinks   []Sink
}

// Event is one instrumentation record: a timed span or a scheduler choice.
// Emit sites build an event's strings once and stamp Seconds per call, so
// recording one allocates nothing.
type Event struct {
	// Cat is the category, the first segment of Name: "layer", "core",
	// "tune", "pack", "blockw", "spweight", or "choice".
	Cat string
	// Name is the span path, e.g. "layer/conv0/fp/stencil" or, for a glue
	// layer, "layer/relu0/bp"; a choice is "choice/<phase>".
	Name string
	// Layer, Phase and Strategy are a layer span's parts (Phase "fp" or
	// "bp"; Strategy empty for glue layers), and a choice's phase and
	// winning strategy.
	Layer, Phase, Strategy string
	// Seconds is the span's elapsed time, or the winner's measured time.
	Seconds float64
	// Planned marks a layer span whose call ran a planning pass, so its
	// time is not the deployed kernel's alone.
	Planned bool
}

// ChoiceEvent is one scheduler deployment decision: strategy won phase
// ("fp", "bp", or "bp-flip" for a re-plan that changed the BP strategy) in
// the measured seconds.
func ChoiceEvent(phase, strategy string, seconds float64) Event {
	return Event{Cat: "choice", Name: "choice/" + phase, Phase: phase, Strategy: strategy, Seconds: seconds}
}

// Sink receives every event a probe records, as it is recorded — how the
// metrics registry, the trace emitter and the drift observatory observe a
// running job without polling. Implementations must be safe for concurrent
// use and must not call back into the probe.
type Sink interface {
	Record(Event)
}

// Span aggregates the observations of one named instrumentation point.
type Span struct {
	// Calls is the number of observations.
	Calls int64
	// Seconds is the total observed time.
	Seconds float64
	// Min is the fastest single observation.
	Min float64
}

// NewProbe returns an empty probe on the runtime's monotonic clock.
func NewProbe() *Probe { return &Probe{spans: make(map[string]*Span)} }

// origin is the runtime clock's zero: Now reads the monotonic time since it.
var origin = time.Now()

// Now reads the probe's clock: a monotonic time since an arbitrary fixed
// origin, to be subtracted from a later reading.
func (p *Probe) Now() time.Duration {
	if p == nil || p.clock == nil {
		return time.Since(origin)
	}
	return p.clock()
}

// SetClock replaces the runtime clock Now reads with clock — how a test
// scripts time; nil restores the runtime clock. Install it before the probe
// is shared: the clock itself is not guarded, and a scripted clock must be
// safe for concurrent use.
func (p *Probe) SetClock(clock func() time.Duration) { p.clock = clock }

// RecordSince stamps ev with the time elapsed since start, an earlier Now
// reading, records it, and returns the stamped seconds.
func (p *Probe) RecordSince(ev Event, start time.Duration) float64 {
	ev.Seconds = (p.Now() - start).Seconds()
	p.Record(ev)
	return ev.Seconds
}

// AddSink attaches s beside any sinks already attached; every later event
// reaches each of them, in attach order. A nil s is a no-op.
func (p *Probe) AddSink(s Sink) {
	if p == nil || s == nil {
		return
	}
	p.mu.Lock()
	// Copy on attach: Record iterates the slice it read outside the lock.
	p.sinks = append(p.sinks[:len(p.sinks):len(p.sinks)], s)
	p.mu.Unlock()
}

// Record records one event: a choice is appended to Choices, any other
// event is one observation of the span ev.Name. The event then reaches
// every attached sink.
func (p *Probe) Record(ev Event) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if ev.Cat == "choice" {
		p.choices = append(p.choices, ev)
	} else {
		sp := p.spans[ev.Name]
		if sp == nil {
			sp = &Span{Min: ev.Seconds}
			p.spans[ev.Name] = sp
		}
		sp.Calls++
		sp.Seconds += ev.Seconds
		if ev.Seconds < sp.Min {
			sp.Min = ev.Seconds
		}
	}
	sinks := p.sinks
	p.mu.Unlock()
	for _, s := range sinks {
		s.Record(ev)
	}
}

// SpanStats returns a copy of the named span's aggregate.
func (p *Probe) SpanStats(name string) (Span, bool) {
	if p == nil {
		return Span{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, ok := p.spans[name]
	if !ok {
		return Span{}, false
	}
	return *sp, true
}

// Spans returns a snapshot of every span by name.
func (p *Probe) Spans() map[string]Span {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]Span, len(p.spans))
	for name, sp := range p.spans {
		out[name] = *sp
	}
	return out
}

// Choices returns a copy of the recorded choice events, oldest first.
func (p *Probe) Choices() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.choices...)
}
