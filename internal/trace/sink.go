package trace

import "spgcnn/internal/exec"

var _ exec.Sink = (*Emitter)(nil)

// Attach streams an execution context's probe (layer, kernel and tune
// spans, scheduler choices) and arena growth onto the timeline under the
// given replica identity, and returns that identity's emitter. Sinks fan
// out, so a bound metrics registry keeps observing. A nil recorder or
// context attaches nothing (the nil recorder's emitter is nil, and nil-safe).
func Attach(rec *Recorder, c *exec.Ctx, replica int) *Emitter {
	e := rec.Emitter(replica, 0)
	if rec == nil || c == nil {
		return e
	}
	c.Probe().AddSink(e)
	c.Arena().SetGrowHook(func(bytes int64) {
		e.Instant("arena", "grow", "", float64(bytes))
	})
	return e
}

// Record implements exec.Sink, stamping each probe event with the emitter's
// replica. Spans report elapsed time at completion, so they land
// end-stamped (End) under the event's category and name; a scheduler choice
// lands as an instant carrying the winning strategy and its time.
func (e *Emitter) Record(ev exec.Event) {
	if ev.Cat == "choice" {
		e.Instant(ev.Cat, ev.Name, ev.Strategy, ev.Seconds)
		return
	}
	e.End(ev.Cat, ev.Name, ev.Seconds)
}
