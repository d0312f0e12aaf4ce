package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"spgcnn/internal/exec"
)

func TestModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Full, Ring} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
}

func TestNilRecorderAndEmitterAreInert(t *testing.T) {
	var r *Recorder
	r.SetStep(1)
	r.SetBand(2)
	r.AddLayerMeta(LayerMeta{Name: "x"})
	if r.Events() != nil || r.Layers() != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.Stats() != (Stats{}) {
		t.Fatal("nil recorder returned stats")
	}
	e := r.Emitter(0, 0)
	e.SpanDetail("c", "n", "", 0, time.Now(), time.Millisecond)
	e.Instant("c", "n", "", 0)
	e.End("c", "n", 0.1)
	ran := false
	e.Region("c", "n", func() { ran = true })
	if !ran {
		t.Fatal("nil emitter Region did not run fn")
	}
	// Recording probe events into a nil emitter must also be inert.
	e.Record(exec.Event{Cat: "layer", Name: "layer/x/fp/stencil", Seconds: 0.1})
	e.Record(exec.ChoiceEvent("fp", "stencil", 0.1))
}

func TestEmitterStampsIdentityStepAndBand(t *testing.T) {
	r := New(Options{})
	r.SetStep(7)
	r.SetBand(3)
	e := r.Emitter(2, 1)
	e.SpanDetail("layer", "layer/conv0/fp/stencil", "", 0, time.Now(), time.Millisecond)
	e.Instant("epoch", "epoch", "detail", 42)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Replica != 2 || ev.Worker != 1 {
			t.Fatalf("event %q stamped replica %d worker %d, want 2/1", ev.Name, ev.Replica, ev.Worker)
		}
		if ev.Step != 7 || ev.Band != 3 {
			t.Fatalf("event %q stamped step %d band %d, want 7/3", ev.Name, ev.Step, ev.Band)
		}
	}
	if st := r.Stats(); st.Emitted != 2 || st.Buffered != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRingModeBoundsMemoryAndCountsOverwrites(t *testing.T) {
	r := New(Options{Mode: Ring, RingSize: 4, Shards: 1})
	e := r.Emitter(0, 0)
	for i := 0; i < 10; i++ {
		e.Instant("c", "n", "", float64(i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring held %d events, want 4", len(evs))
	}
	// The survivors must be the NEWEST four, oldest-first.
	for i, ev := range evs {
		if want := float64(6 + i); ev.Value != want {
			t.Fatalf("ring[%d].Value = %v, want %v", i, ev.Value, want)
		}
	}
	st := r.Stats()
	if st.Emitted != 10 || st.Buffered != 4 || st.Overwritten != 6 {
		t.Fatalf("stats = %+v, want emitted 10 buffered 4 overwritten 6", st)
	}
	if st.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", st.Capacity)
	}
}

func TestFullModeDropsAtCap(t *testing.T) {
	r := New(Options{Mode: Full, MaxEvents: 3, Shards: 1})
	e := r.Emitter(0, 0)
	for i := 0; i < 5; i++ {
		e.Instant("c", "n", "", float64(i))
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("full mode held %d events, want 3", len(evs))
	}
	// Full mode keeps the OLDEST events and drops new arrivals.
	for i, ev := range evs {
		if ev.Value != float64(i) {
			t.Fatalf("full[%d].Value = %v, want %v", i, ev.Value, float64(i))
		}
	}
	if st := r.Stats(); st.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", st.Dropped)
	}
}

func TestEmittersShardIndependently(t *testing.T) {
	r := New(Options{Mode: Ring, RingSize: 8, Shards: 4})
	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		e := r.Emitter(rep, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.Instant("c", "n", "", 1)
			}
		}()
	}
	wg.Wait()
	// 4 shards × ring of 8: each replica's emitter kept its newest 8.
	if evs := r.Events(); len(evs) != 32 {
		t.Fatalf("events = %d, want 32", len(evs))
	}
	if st := r.Stats(); st.Emitted != 400 {
		t.Fatalf("emitted = %d, want 400", st.Emitted)
	}
}

func TestEndStampsSpanStart(t *testing.T) {
	r := New(Options{})
	e := r.Emitter(0, 0)
	e.End("layer", "layer/conv0/fp/stencil", 0.010)
	ev := r.Events()[0]
	if ev.Dur != int64(10*time.Millisecond) {
		t.Fatalf("dur = %d, want 10ms", ev.Dur)
	}
	if ev.Ts < 0 {
		t.Fatalf("ts = %d, want >= 0 (clamped)", ev.Ts)
	}
	// A span "older" than the capture clamps to the epoch rather than
	// going negative.
	e.End("layer", "big", 3600)
	for _, ev := range r.Events() {
		if ev.Ts < 0 {
			t.Fatalf("clamp failed: ts = %d", ev.Ts)
		}
	}
}

func TestEmitterRecordsSpansAndChoices(t *testing.T) {
	r := New(Options{})
	p := exec.NewProbe()
	p.AddSink(r.Emitter(1, 0))
	p.Record(exec.Event{Cat: "layer", Name: "layer/conv0/bp/sparse", Seconds: 0.002})
	p.Record(exec.Event{Cat: "tune", Name: "tune/fp/stencil", Seconds: 0.001})
	p.Record(exec.Event{Cat: "span", Name: "flat", Seconds: 0.001})
	p.Record(exec.ChoiceEvent("bp", "sparse", 0.002))
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	cats := map[string]string{}
	for _, ev := range evs {
		cats[ev.Name] = ev.Cat
		if ev.Replica != 1 {
			t.Fatalf("event %q replica = %d, want 1", ev.Name, ev.Replica)
		}
	}
	if cats["layer/conv0/bp/sparse"] != "layer" || cats["tune/fp/stencil"] != "tune" ||
		cats["flat"] != "span" || cats["choice/bp"] != "choice" {
		t.Fatalf("categories = %v", cats)
	}
}

func TestRegionRecordsSpanAndRuns(t *testing.T) {
	r := New(Options{})
	e := r.Emitter(0, 0)
	ran := false
	start := time.Now()
	e.Region("step", "step", func() { ran = true })
	wall := time.Since(start)
	if !ran {
		t.Fatal("Region did not run fn")
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].Name != "step" || evs[0].Phase != 'X' {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Dur < 0 || evs[0].Dur > int64(wall) {
		t.Fatalf("region dur = %d, want within the %d ns the call took", evs[0].Dur, wall)
	}
}

func TestAddLayerMetaUpserts(t *testing.T) {
	r := New(Options{})
	r.AddLayerMeta(LayerMeta{Name: "conv0", FPFlops: 1, BPFlops: 2})
	r.AddLayerMeta(LayerMeta{Name: "conv1", FPFlops: 3, BPFlops: 4})
	r.AddLayerMeta(LayerMeta{Name: "conv0", FPFlops: 10, BPFlops: 20})
	ls := r.Layers()
	if len(ls) != 2 {
		t.Fatalf("layers = %d, want 2", len(ls))
	}
	if ls[0].Name != "conv0" || ls[0].FPFlops != 10 {
		t.Fatalf("upsert failed: %+v", ls[0])
	}
}

// sampleCapture builds a small deterministic two-replica capture by hand
// (fixed timestamps — recorder clocks would vary run to run).
func sampleCapture() Capture {
	ms := int64(time.Millisecond)
	evs := []Event{
		// Step 1: replica 0 fast (2ms), replica 1 slow (5ms).
		{Name: "step", Cat: "step", Phase: 'X', Ts: 0, Dur: 2 * ms, Replica: 0, Step: 1},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 0, Dur: 5 * ms, Replica: 1, Step: 1},
		{Name: "allreduce", Cat: "sync", Phase: 'X', Ts: 5 * ms, Dur: ms, Replica: -1, Step: 1},
		// Step 2: replica 0 slow (6ms), replica 1 fast (3ms).
		{Name: "step", Cat: "step", Phase: 'X', Ts: 6 * ms, Dur: 6 * ms, Replica: 0, Step: 2},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 6 * ms, Dur: 3 * ms, Replica: 1, Step: 2},
		{Name: "allreduce", Cat: "sync", Phase: 'X', Ts: 12 * ms, Dur: ms, Replica: -1, Step: 2},
		// Step 3: replica 1 slow again (4ms vs 2ms).
		{Name: "step", Cat: "step", Phase: 'X', Ts: 13 * ms, Dur: 2 * ms, Replica: 0, Step: 3},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 13 * ms, Dur: 4 * ms, Replica: 1, Step: 3},
		{Name: "allreduce", Cat: "sync", Phase: 'X', Ts: 17 * ms, Dur: ms, Replica: -1, Step: 3},
		// Layer spans: conv0 runs dense BP, conv1 runs the sparse kernel.
		{Name: "layer/conv0/fp/stencil", Cat: "layer", Phase: 'X', Ts: ms, Dur: ms, Replica: 0, Step: 1},
		{Name: "layer/conv0/bp/parallel-gemm", Cat: "layer", Phase: 'X', Ts: 2 * ms, Dur: 2 * ms, Replica: 0, Step: 1},
		{Name: "layer/conv1/fp/stencil", Cat: "layer", Phase: 'X', Ts: 3 * ms, Dur: ms, Replica: 0, Step: 1},
		{Name: "layer/conv1/bp/sparse", Cat: "layer", Phase: 'X', Ts: 4 * ms, Dur: ms, Replica: 0, Step: 1},
		// Planner activity.
		{Name: "plan/bp/measure", Cat: "plan", Phase: 'X', Ts: 0, Dur: 3 * ms, Replica: -1, Step: 1,
			Detail: "sparse", Value: 0.001},
		{Name: "plan/bp/hit", Cat: "plan", Phase: 'i', Ts: 6 * ms, Replica: -1, Step: 2, Detail: "sparse"},
		// Arena growth.
		{Name: "grow", Cat: "arena", Phase: 'i', Ts: ms, Replica: 0, Step: 1, Value: 4096},
		// Epoch accounting: 8 images, conv0 sparsity 0.5, conv1 0.75.
		{Name: "epoch", Cat: "epoch", Phase: 'i', Ts: 18 * ms, Replica: -1, Step: 3, Value: 8},
		{Name: "sparsity/conv0", Cat: "sparsity", Phase: 'i', Ts: 18 * ms, Replica: -1, Step: 3,
			Detail: "conv0", Value: 0.5},
		{Name: "sparsity/conv1", Cat: "sparsity", Phase: 'i', Ts: 18 * ms, Replica: -1, Step: 3,
			Detail: "conv1", Value: 0.75},
	}
	return Capture{
		Events: evs,
		Layers: []LayerMeta{
			{Name: "conv0", FPFlops: 1000, BPFlops: 2000},
			{Name: "conv1", FPFlops: 500, BPFlops: 1000},
		},
		Mode:  "full",
		Stats: Stats{Emitted: uint64(len(evs))},
	}
}

func TestWriteJSONDeterministicAndRoundTrips(t *testing.T) {
	c := sampleCapture()
	var a, b bytes.Buffer
	if err := WriteJSON(&a, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, c); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteJSON is not deterministic")
	}
	got, err := ReadJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(got); err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(c.Events) {
		t.Fatalf("round trip lost events: %d -> %d", len(c.Events), len(got.Events))
	}
	if len(got.Layers) != 2 || got.Mode != "full" {
		t.Fatalf("round trip lost sidecar: %+v", got)
	}
	want := append([]Event(nil), c.Events...)
	SortEvents(want)
	for i := range want {
		if got.Events[i] != want[i] {
			t.Fatalf("event %d diverged:\n got %+v\nwant %+v", i, got.Events[i], want[i])
		}
	}
	// The export must name every process row for trace viewers.
	for _, s := range []string{`"process_name"`, `"replica 0"`, `"replica 1"`, `"scheduler"`, `"displayTimeUnit"`} {
		if !strings.Contains(a.String(), s) {
			t.Fatalf("export missing %s", s)
		}
	}
}

func TestReadJSONRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"not json":      "{",
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		"empty name":    `{"traceEvents":[{"name":"","ph":"i","ts":0,"pid":0,"tid":0}]}`,
		"negative ts":   `{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":0,"tid":0}]}`,
		"negative pid":  `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":-1,"tid":0}]}`,
		"X without dur": `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":0,"tid":0}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON accepted malformed input", name)
		}
	}
}

func TestStragglerAttribution(t *testing.T) {
	rep := Stragglers(sampleCapture())
	if rep.Steps != 3 || rep.Syncs != 3 {
		t.Fatalf("steps/syncs = %d/%d, want 3/3", rep.Steps, rep.Syncs)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	r0, r1 := rep.Rows[0], rep.Rows[1]
	// Replica 1 was slowest in steps 1 and 3, replica 0 in step 2.
	if r1.SlowestCount != 2 || r0.SlowestCount != 1 {
		t.Fatalf("slowest counts = %d/%d, want 1/2", r0.SlowestCount, r1.SlowestCount)
	}
	if rep.SlowestReplica != 1 {
		t.Fatalf("slowest replica = %d, want 1", rep.SlowestReplica)
	}
	// Replica 0 waited 3ms (step 1) + 2ms (step 3); replica 1 waited 3ms.
	if want := 0.005; !close(r0.BarrierWait, want) {
		t.Fatalf("replica 0 barrier wait = %v, want %v", r0.BarrierWait, want)
	}
	if want := 0.003; !close(r1.BarrierWait, want) {
		t.Fatalf("replica 1 barrier wait = %v, want %v", r1.BarrierWait, want)
	}
	if !close(r0.Min, 0.002) || !close(r0.Max, 0.006) || !close(r0.Mean(), 10.0/3/1000) {
		t.Fatalf("replica 0 min/max/mean = %v/%v/%v", r0.Min, r0.Max, r0.Mean())
	}
	if !close(rep.AllReduceSeconds, 0.003) {
		t.Fatalf("allreduce seconds = %v", rep.AllReduceSeconds)
	}
}

func TestGoodputWasteAttribution(t *testing.T) {
	rep := GoodputWaste(sampleCapture())
	if rep.Epochs != 1 || len(rep.Rows) != 2 {
		t.Fatalf("epochs/rows = %d/%d, want 1/2", rep.Epochs, len(rep.Rows))
	}
	// conv0: dense 8×3000 = 24000, wasted 8×2000×0.5 = 8000, burned
	// (dense BP strategy) 8000. conv1: wasted 8×1000×0.75 = 6000 but the
	// sparse kernel recovers it → burned 0. conv0 must rank first.
	c0 := rep.Rows[0]
	if c0.Layer != "conv0" {
		t.Fatalf("top burner = %s, want conv0", c0.Layer)
	}
	if !close(c0.DenseFlops, 24000) || !close(c0.WastedFlops, 8000) || !close(c0.BurnedFlops, 8000) {
		t.Fatalf("conv0 = %+v", c0)
	}
	if c0.BPStrategy != "parallel-gemm" || c0.FPStrategy != "stencil" {
		t.Fatalf("conv0 strategies = %s/%s", c0.FPStrategy, c0.BPStrategy)
	}
	c1 := rep.Rows[1]
	if !close(c1.WastedFlops, 6000) || c1.BurnedFlops != 0 {
		t.Fatalf("conv1 = %+v (sparse kernel must recover the gap)", c1)
	}
	if !close(rep.DenseFlops, 36000) || !close(rep.WastedFlops, 14000) || !close(rep.BurnedFlops, 8000) {
		t.Fatalf("totals = %+v", rep)
	}
	if !close(rep.UsefulFlops, 22000) {
		t.Fatalf("useful = %v, want 22000", rep.UsefulFlops)
	}
}

func TestTopSpans(t *testing.T) {
	spans := TopSpans(sampleCapture().Events, 3)
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	// step: 2+5+6+3+2+4 = 22ms total dominates.
	if spans[0].Name != "step" || spans[0].Calls != 6 || !close(spans[0].Total, 0.022) {
		t.Fatalf("top span = %+v", spans[0])
	}
	if !close(spans[0].Max, 0.006) || !close(spans[0].Mean(), 0.022/6) {
		t.Fatalf("top span max/mean = %v/%v", spans[0].Max, spans[0].Mean())
	}
	all := TopSpans(sampleCapture().Events, 0)
	if len(all) < 6 {
		t.Fatalf("TopSpans(0) = %d entries, want all", len(all))
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
