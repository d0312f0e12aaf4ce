package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample p95 = %g, want 7", got)
	}
	// Nearest rank never interpolates: p50 of four samples is the second.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %g, want 2", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, // p75 of 39 leaves 9 beyond
		{40, 75}, {99, 75}, // p90 of 99 leaves 9 beyond
		{100, 90}, {199, 90}, // p95 of 199 leaves 9 beyond
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g (beyond p%g: %d)", c.n, got, c.want, got, samplesBeyond(c.n, got))
		}
	}
	d := summarize(make([]float64, 150))
	if d.Tail != 90 || d.N != 150 {
		t.Errorf("summarize(150 samples) tail = p%g n=%d, want p90 n=150", d.Tail, d.N)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g, want 1, 4", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %g, want 1", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to the parent: 90..100
		{Name: "a1", Start: 12, End: 20, Parent: 1},  // grandchild does not count against step
		{Name: "lone", Start: 5, End: 6, Parent: -1}, // root without children
	}
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8, 1}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := totals(spans)
	if tot["step"].Self != 40 || tot["step"].Dur != 100 || tot["a"].Count != 1 {
		t.Errorf("totals: step %+v a %+v", tot["step"], tot["a"])
	}
}

func TestRecorderLimitAndNil(t *testing.T) {
	var off *recorder
	id := off.begin("x", -1, 0)
	off.end(id)
	if id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	r := newRecorder(2)
	a := r.begin("a", -1, 1)
	r.end(a)
	r.add("b", 1, 2, a, 1)
	if got := r.add("c", 2, 3, a, 1); got != -1 || r.dropped != 1 || len(r.spans) != 2 {
		t.Errorf("full recorder: add = %d dropped = %d spans = %d", got, r.dropped, len(r.spans))
	}
	if r.spans[0].End < r.spans[0].Start {
		t.Errorf("span ends before it starts: %+v", r.spans[0])
	}
}

func TestScheduleAndPoolAreSeedDeterministic(t *testing.T) {
	rates := []float64{60, 120, 180}
	a := poissonSchedule(7, rates, 4*time.Second, poolSize)
	b := poissonSchedule(7, rates, 4*time.Second, poolSize)
	c := poissonSchedule(8, rates, 4*time.Second, poolSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 1 s at 60/s, 2 s at 120/s, 1 s at 180/s: the count is fixed by the
	// rates, only the times are random.
	if len(a) != 60+240+180 || len(c) != len(a) {
		t.Fatalf("schedule has %d arrivals, want %d", len(a), 60+240+180)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Due < a[j].Due }) {
		t.Error("schedule is not sorted by due time")
	}
	perStep := map[int]int{}
	for _, x := range a {
		perStep[x.Step]++
		if x.Input < 0 || x.Input >= poolSize {
			t.Fatalf("input index %d outside the pool", x.Input)
		}
	}
	if perStep[0] != 60 || perStep[1] != 240 || perStep[2] != 180 {
		t.Errorf("arrivals per rate step = %v", perStep)
	}
	if a[59].Due >= time.Second || a[60].Due < time.Second || a[len(a)-1].Due >= 4*time.Second {
		t.Error("rate steps do not tile the window as 1/4, 1/2, 1/4")
	}

	p, q, r := newPool(7, 4, 9), newPool(7, 4, 9), newPool(8, 4, 9)
	if !reflect.DeepEqual(p.bodies, q.bodies) || reflect.DeepEqual(p.bodies, r.bodies) {
		t.Error("pool bodies do not follow the seed")
	}
	// The body must decode to exactly the float32 values the oracle sees.
	var req struct {
		Input []float32 `json:"input"`
	}
	if err := json.Unmarshal(p.bodies[2], &req); err != nil || !reflect.DeepEqual(req.Input, p.inputs[2]) {
		t.Errorf("body does not round-trip its input: %v", err)
	}
}

// slowServer answers /v1/infer after delay with a fixed, valid response.
func slowServer(t *testing.T, delay time.Duration, out []float32) *httptest.Server {
	t.Helper()
	body, _ := json.Marshal(inferResponse{Output: out, Argmax: 1, Batch: 1, Bucket: 1, QueueMs: 1, ComputeMs: 2})
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
}

func TestOpenLoopTimesFromDueTimeWhenConnectionsAreBusy(t *testing.T) {
	const delay = 60 * time.Millisecond
	want := []float32{0.25, 0.5}
	srv := slowServer(t, delay, want)
	defer srv.Close()
	p := newPool(1, 1, 4)
	p.want = [][]float32{want}

	// Four arrivals due at once over two connections: the last two must
	// wait a full service time for a connection. Their latency counts that
	// wait (it runs from the due time), and the lag reports it.
	sched := []arrival{{Due: 0}, {Due: 0}, {Due: 0}, {Due: 0}}
	got := openLoop(srv.URL, p, 2, sched, time.Second, time.Second, nil, nil)
	if len(got) != 4 {
		t.Fatalf("%d samples, want 4", len(got))
	}
	d := ms(delay)
	for i, s := range got {
		if !s.OK {
			t.Fatalf("sample %d failed: %+v", i, s)
		}
		wire := s.LatencyMs - s.LagMs
		if wire < d || wire > d+40 {
			t.Errorf("sample %d: send-to-response %.1f ms, want about %.0f", i, wire, d)
		}
		if s.QueueMs != 1 || s.ComputeMs != 2 {
			t.Errorf("sample %d: server times %g/%g not taken from the response body", i, s.QueueMs, s.ComputeMs)
		}
	}
	for _, i := range []int{2, 3} {
		if got[i].LagMs < d-1 || got[i].LatencyMs < 2*d-1 {
			t.Errorf("queued arrival %d: lag %.1f ms latency %.1f ms, want at least %.0f and %.0f",
				i, got[i].LagMs, got[i].LatencyMs, d, 2*d)
		}
	}
	for _, i := range []int{0, 1} {
		if got[i].LagMs > 30 {
			t.Errorf("first arrival %d was sent %.1f ms late", i, got[i].LagMs)
		}
	}
}

func TestOpenLoopCountsUnsentAndMismatchesAsFailed(t *testing.T) {
	srv := slowServer(t, 30*time.Millisecond, []float32{0.25, 0.5})
	defer srv.Close()
	p := newPool(1, 1, 4)
	p.want = [][]float32{{0.25, 0.5}}
	// One connection, 30 ms per request, 20 ms window with no grace: the
	// second arrival is still unsent when the window has passed.
	got := openLoop(srv.URL, p, 1, []arrival{{Due: 0}, {Due: time.Millisecond}}, 20*time.Millisecond, 0, nil, nil)
	if !got[0].OK || got[1].OK || got[1].Wrong {
		t.Errorf("want first answered and second unsent (failed, not wrong), got %+v", got)
	}
	p.want = [][]float32{{0.25, 0.75}} // oracle disagrees by more than respTol
	got = openLoop(srv.URL, p, 1, []arrival{{Due: 0}}, time.Second, 0, nil, nil)
	if got[0].OK || !got[0].Wrong {
		t.Errorf("a response that mismatches the oracle must be failed and wrong, got %+v", got[0])
	}
	if matches([]float32{1, 3}, 0, []float32{1, 3}) {
		t.Error("wrong argmax accepted")
	}
}

func TestVerdicts(t *testing.T) {
	lower := declMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := declMetric{Name: "images_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		m         declMetric
		base, cur []float64
		want      string
	}{
		{lower, steady, steady, "unchanged"},
		{lower, steady, scale(steady, 1.2), "regressed"},
		{lower, steady, scale(steady, 0.8), "improved"},
		{lower, steady, scale(steady, 1.05), "unchanged"},
		{higher, steady, scale(steady, 0.8), "regressed"},
		{higher, steady, scale(steady, 1.2), "improved"},
		{lower, noisy, scale(steady, 1.5), "unresolved"},
		{lower, steady, noisy, "unresolved"},
	} {
		if _, _, _, got := verdict(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s base %.0f new %.0f: verdict %s, want %s", c.m.Name, median(c.base), median(c.cur), got, c.want)
		}
	}
	mix := func(conv1bp map[string]int) []runFile {
		return []runFile{{Info: runInfo{Deployed: map[string]map[string]int{
			"conv1/bp": conv1bp, "conv0/fp": {"blocked": 7, "stencil": 1}}}}}
	}
	a := mix(map[string]int{"sparse": 6, "gemm-packed": 2})
	if got := strategyFlips(a, mix(map[string]int{"sparse": 5, "gemm-packed": 3})); len(got) != 0 {
		t.Errorf("a one-segment shift flagged as a flip: %v", got)
	}
	got := strategyFlips(a, mix(map[string]int{"sparse": 2, "gemm-packed": 6}))
	if len(got) != 1 || got[0] != "conv1/bp: [sparse 75%, gemm-packed 25%] -> [gemm-packed 75%, sparse 25%]" {
		t.Errorf("strategyFlips = %v", got)
	}
}

// TestSmoke runs every workload untraced and traced on a short window with
// two segments and short epochs, checks the contract's shape, and checks that
// the declared per-layer names are exactly the ones the four ledgers
// measure between them.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	decl, err := loadDeclaration(declFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	measured := map[string]bool{}
	for _, cfg := range workloads() {
		cfg.Segments = 2
		if cfg.train() {
			cfg.Examples = 2 * cfg.Batch
		}
		for _, traced := range []bool{false, true} {
			f, err := run(cfg, decl, 3, 0.6, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", cfg.Name, traced, err)
			}
			if !f.Result.Correct || f.Result.Failed != 0 || f.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					cfg.Name, traced, f.Result.Correct, f.Result.Attempted, f.Result.Failed, f.Info.Notes)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(f.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", cfg.Name, traced, len(f.Result.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := f.Result.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", cfg.Name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", cfg.Name, m.Name, got.Value)
				}
			}
			for _, name := range f.Applies {
				measured[name] = true
			}
			if len(f.Info.Deployed) == 0 || f.Info.Host == "" || f.Info.GOMAXPROCS < 1 {
				t.Errorf("%s: info block incomplete: %+v", cfg.Name, f.Info)
			}
		}
	}
	for _, m := range decl.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
}
