package plan

import (
	"testing"

	"spgcnn/internal/core"
	"spgcnn/internal/trace"
)

// TestPlannerTraceEvents pins the planner's timeline contract: a cold
// request records a measurement span carrying the winner, a warm request
// records a hit instant, and neither path emits the other's event.
func TestPlannerTraceEvents(t *testing.T) {
	rec := trace.New(trace.Options{})
	p := fakePlanner()
	p.SetTrace(rec.Emitter(-1, 0))
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)

	ctx := newCtx(1)
	p.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{})
	p.PlanBP(testSpec, newCtx(1), eos, ins, w, core.TuneOptions{})

	var measures, hits []trace.Event
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "plan/bp/measure":
			measures = append(measures, ev)
		case "plan/bp/hit":
			hits = append(hits, ev)
		}
	}
	if len(measures) != 1 || len(hits) != 1 {
		t.Fatalf("measures/hits = %d/%d, want 1/1", len(measures), len(hits))
	}
	m := measures[0]
	if m.Phase != 'X' || m.Dur <= 0 {
		t.Fatalf("measure event = %+v, want a positive-duration span", m)
	}
	if m.Detail != "sparse-friendly" {
		t.Fatalf("measure winner = %q, want sparse-friendly", m.Detail)
	}
	if m.Replica != -1 {
		t.Fatalf("measure replica = %d, want -1 (coordinator)", m.Replica)
	}
	h := hits[0]
	if h.Phase != 'i' || h.Detail != "sparse-friendly" {
		t.Fatalf("hit event = %+v", h)
	}
}
