package trace

import (
	"strings"

	"spgcnn/internal/exec"
)

// ProbeSink adapts an Emitter to exec.Sink, so a context's probe stream —
// per-layer fp/bp spans, kernel-level core spans, tune spans, scheduler
// choices — lands on the trace timeline without changing any
// instrumentation call site. Probe spans report elapsed time at
// completion, so they are recorded end-stamped (Emitter.End). Attach with
// Probe.AddSink so the metrics bridge keeps observing too.
type ProbeSink struct{ e *Emitter }

var _ exec.Sink = (*ProbeSink)(nil)

// Attach streams an execution context's probe (layer, kernel and tune
// spans, scheduler choices) and arena growth onto the timeline under the
// given replica identity, and returns that identity's emitter. Sinks fan
// out, so a bound metrics bridge keeps observing. A nil recorder or context
// attaches nothing (the nil recorder's emitter is nil, and nil-safe).
func Attach(rec *Recorder, c *exec.Ctx, replica int) *Emitter {
	e := rec.Emitter(replica, 0)
	if rec == nil || c == nil {
		return e
	}
	c.Probe().AddSink(NewProbeSink(e))
	c.Arena().SetGrowHook(func(bytes int64) {
		e.Instant("arena", "grow", "", float64(bytes))
	})
	return e
}

// NewProbeSink wraps an emitter. The emitter's replica stamp becomes the
// replica of every span the probe reports — one ProbeSink per replica
// context.
func NewProbeSink(e *Emitter) *ProbeSink { return &ProbeSink{e: e} }

// ObserveSpan implements exec.Sink.
func (s *ProbeSink) ObserveSpan(name string, seconds float64) {
	s.e.End(spanCat(name), name, seconds)
}

// RecordChoice implements exec.Sink.
func (s *ProbeSink) RecordChoice(phase, strategy string, seconds float64) {
	s.e.Instant("choice", "choice/"+phase, strategy, seconds)
}

// spanCat derives the event category from the span path's first segment
// ("layer/conv0/fp/stencil" → "layer"); pathless names fall back to
// "span".
func spanCat(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return "span"
}
