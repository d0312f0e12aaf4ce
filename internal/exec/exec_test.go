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

// scripted is a probe clock only the measured candidates advance: each
// call of a candidate charges it the next of its costs.
type scripted struct {
	now   time.Duration
	order string // candidate names, one per call
}

func (sc *scripted) candidate(name string, costs ...time.Duration) func() {
	calls := 0
	return func() {
		sc.now += costs[min(calls, len(costs)-1)]
		sc.order += name
		calls++
	}
}

// TestMeasureReturnsMinAndRecordsSpans: Measure warms every candidate up
// once, then times one candidate per turn in rounds that rotate the order,
// returns each candidate's fastest timed run, and records each timed run,
// never a warm-up.
func TestMeasureReturnsMinAndRecordsSpans(t *testing.T) {
	c := New(1)
	sc := &scripted{}
	c.Probe().SetClock(func() time.Duration { return sc.now })
	ms := time.Millisecond
	got := c.Measure([]Event{{Cat: "tune", Name: "tune/a"}, {Cat: "tune", Name: "tune/b"}},
		sc.candidate("a", time.Second, 5*ms, 2*ms, 4*ms),
		sc.candidate("b", time.Second, 3*ms, 6*ms, 1*ms))
	if sc.order != "ab"+"ab"+"ba"+"ab" { // warm-ups, then 3 rotated rounds
		t.Fatalf("call order %q, want abab ba ab", sc.order)
	}
	if len(got) != 2 || got[0] != 0.002 || got[1] != 0.001 {
		t.Fatalf("Measure returned %v, want [0.002 0.001]", got)
	}
	for _, want := range []struct {
		name       string
		total, min float64
	}{{"tune/a", 0.011, 0.002}, {"tune/b", 0.010, 0.001}} {
		sp, ok := c.Probe().SpanStats(want.name)
		if !ok || sp.Calls != measureRuns || sp.Min != want.min || math.Abs(sp.Seconds-want.total) > 1e-12 {
			t.Fatalf("%s span = %+v ok=%v, want 3 calls, %vs total, %vs min", want.name, sp, ok, want.total, want.min)
		}
	}
}

// TestMeasureFloor: a candidate faster than the floor is timed until the
// rounds have taken measureFloor, a slow one measureRuns times, and a
// clock no round advances ends the pass at measureRuns.
func TestMeasureFloor(t *testing.T) {
	for _, tc := range []struct {
		cost  time.Duration
		calls int64
	}{
		{100 * time.Microsecond, int64(measureFloor / (100 * time.Microsecond))},
		{measureFloor, measureRuns},
		{0, measureRuns},
	} {
		c := New(1)
		sc := &scripted{}
		c.Probe().SetClock(func() time.Duration { return sc.now })
		c.Measure([]Event{{Cat: "tune", Name: "tune/x"}}, sc.candidate("x", tc.cost))
		if sp, _ := c.Probe().SpanStats("tune/x"); sp.Calls != tc.calls {
			t.Errorf("cost %v: %d timed runs, want %d", tc.cost, sp.Calls, tc.calls)
		}
	}
}

// TestMeasureSurvivesAStall: a host stall as long as one round — three
// consecutive calls, each 10 ms slower — lands anywhere in the pass of
// three candidates costing 1, 2 and 3 ms, and the 1 ms candidate must
// still win. Timing each candidate's runs back to back fails this: a stall
// over the fastest one's three runs hands the verdict to the 2 ms one.
func TestMeasureSurvivesAStall(t *testing.T) {
	const n = 3
	ms := time.Millisecond
	total := n * (1 + measureRuns) // every call of the pass
	for at := 0; at+n <= total; at++ {
		c := New(1)
		var now time.Duration
		c.Probe().SetClock(func() time.Duration { return now })
		call := 0
		cand := func(cost time.Duration) func() {
			return func() {
				if call >= at && call < at+n {
					now += 10 * ms
				}
				now += cost
				call++
			}
		}
		evs := []Event{{Name: "a"}, {Name: "b"}, {Name: "c"}}
		got := c.Measure(evs, cand(ms), cand(2*ms), cand(3*ms))
		if call != total {
			t.Fatalf("stall at call %d: %d calls, want %d", at, call, total)
		}
		if got[0] >= got[1] || got[0] >= got[2] {
			t.Errorf("stall at call %d: times %v, want the 1 ms candidate fastest", at, got)
		}
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
