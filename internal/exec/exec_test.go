package exec

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestNewClampsWorkers(t *testing.T) {
	c := New(0)
	if c.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", c.Workers())
	}
	if c.Serial() != c {
		t.Fatal("serial view of a serial ctx should be itself")
	}
}

func TestSerialSharesArenaAndProbe(t *testing.T) {
	c := New(4)
	s := c.Serial()
	if s.Workers() != 1 {
		t.Fatalf("Serial().Workers = %d", s.Workers())
	}
	if s.Arena() != c.Arena() || s.Probe() != c.Probe() {
		t.Fatal("Serial view must share arena and probe")
	}
	if s.Serial() != s {
		t.Fatal("Serial must be idempotent")
	}
	// Scratch released through the serial view is visible to the parent.
	buf := s.Get(64)
	s.Put(buf)
	buf2 := c.Get(64)
	if &buf[0] != &buf2[0] {
		t.Fatal("serial view did not share the arena free lists")
	}
}

// TestMeasureReturnsMinAndRecordsSpans: on a scripted clock that only the
// measured function advances, Measure returns exactly the fastest timed run
// and records each timed run, never the warm-up.
func TestMeasureReturnsMinAndRecordsSpans(t *testing.T) {
	c := New(1)
	var now time.Duration
	c.Probe().SetClock(func() time.Duration { return now })
	costs := []time.Duration{time.Second, 5 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	calls := 0
	got := c.Measure(Event{Cat: "tune", Name: "tune/x"}, 3, func() {
		now += costs[calls]
		calls++
	})
	if calls != 4 { // 1 warm-up + 3 timed
		t.Fatalf("fn called %d times, want 4", calls)
	}
	if got != 0.002 {
		t.Fatalf("Measure returned %v, want 0.002", got)
	}
	sp, ok := c.Probe().SpanStats("tune/x")
	if !ok || sp.Calls != 3 || sp.Min != 0.002 || math.Abs(sp.Seconds-0.011) > 1e-12 {
		t.Fatalf("span = %+v ok=%v, want 3 calls, 0.011s total, 0.002s min", sp, ok)
	}
}

// TestProbeClock: RecordSince stamps an event on the probe's clock, a
// scripted one included, and SetClock(nil) restores the runtime's.
func TestProbeClock(t *testing.T) {
	p := NewProbe()
	now := 7 * time.Second
	p.SetClock(func() time.Duration { return now })
	start := p.Now()
	now += 1500 * time.Microsecond
	if got := p.RecordSince(Event{Cat: "core", Name: "core/x"}, start); got != 0.0015 {
		t.Fatalf("RecordSince = %v, want 0.0015", got)
	}
	if sp, _ := p.SpanStats("core/x"); sp.Calls != 1 || sp.Seconds != 0.0015 {
		t.Fatalf("span = %+v, want one 0.0015s call", sp)
	}
	p.SetClock(nil)
	if a, b := p.Now(), p.Now(); a <= 0 || b < a {
		t.Fatalf("runtime clock read %v then %v", a, b)
	}
}

func TestProbeNilSafe(t *testing.T) {
	var p *Probe
	p.Record(Event{Name: "x", Seconds: 1}) // must not panic
	p.Record(ChoiceEvent("fp", "stencil", 1))
	if p.RecordSince(Event{Name: "x"}, p.Now()) < 0 {
		t.Fatal("nil probe's clock ran backwards")
	}
	if _, ok := p.SpanStats("x"); ok {
		t.Fatal("nil probe returned a span")
	}
	if p.Spans() != nil || p.Choices() != nil {
		t.Fatal("nil probe returned data")
	}
}

func TestProbeChoicesAndSpansConcurrent(t *testing.T) {
	p := NewProbe()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Record(Event{Cat: "core", Name: "fp/stencil", Seconds: 0.001})
				p.Record(ChoiceEvent("bp", "sparse", 0.002))
			}
		}()
	}
	wg.Wait()
	sp, ok := p.SpanStats("fp/stencil")
	if !ok || sp.Calls != 400 {
		t.Fatalf("span calls = %d, want 400", sp.Calls)
	}
	if len(p.Choices()) != 400 {
		t.Fatalf("choices = %d, want 400", len(p.Choices()))
	}
	if len(p.Spans()) != 1 {
		t.Fatalf("spans = %d, want 1", len(p.Spans()))
	}
}

// recordSink counts what reaches one attached sink.
type recordSink struct {
	mu      sync.Mutex
	spans   int
	choices int
}

func (s *recordSink) Record(ev Event) {
	s.mu.Lock()
	if ev.Cat == "choice" {
		s.choices++
	} else {
		s.spans++
	}
	s.mu.Unlock()
}

func (s *recordSink) counts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans, s.choices
}

// TestAddSinkFansOut: every attached sink sees every event, so the metrics
// registry, a tracer and the observatory can all observe one probe.
func TestAddSinkFansOut(t *testing.T) {
	p := NewProbe()
	a, b, c := &recordSink{}, &recordSink{}, &recordSink{}
	p.AddSink(a)
	p.AddSink(b)
	p.AddSink(nil) // no-op
	p.AddSink(c)
	p.Record(Event{Name: "x", Seconds: 1})
	p.Record(Event{Name: "y", Seconds: 2})
	p.Record(ChoiceEvent("bp", "sparse", 3))
	for i, s := range []*recordSink{a, b, c} {
		if sp, ch := s.counts(); sp != 2 || ch != 1 {
			t.Fatalf("sink %d saw %d spans / %d choices, want 2/1", i, sp, ch)
		}
	}
}

// TestAddSinkFirst covers AddSink onto an empty probe.
func TestAddSinkFirst(t *testing.T) {
	p := NewProbe()
	a := &recordSink{}
	p.AddSink(a)
	p.Record(Event{Name: "x", Seconds: 1})
	if sp, _ := a.counts(); sp != 1 {
		t.Fatalf("sink saw %d spans, want 1", sp)
	}
}
