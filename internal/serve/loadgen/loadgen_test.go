package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeTransport answers /v1/spec and /v1/infer deterministically from a
// script of (status, batch) pairs, cycling when exhausted.
type fakeTransport struct {
	mu     sync.Mutex
	calls  int
	script []fakeReply
}

type fakeReply struct {
	status int
	batch  int
}

func (f *fakeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/v1/spec") {
		return jsonResp(http.StatusOK, `{"input_len": 4}`), nil
	}
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	f.mu.Lock()
	rep := f.script[f.calls%len(f.script)]
	f.calls++
	f.mu.Unlock()
	if rep.status != http.StatusOK {
		return jsonResp(rep.status, `{"error":"busy"}`), nil
	}
	return jsonResp(http.StatusOK, fmt.Sprintf(`{"output":[0.1],"argmax":0,"batch":%d}`, rep.batch)), nil
}

func jsonResp(status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// fakeClock advances a fixed step on every reading.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestClosedLoopAggregation(t *testing.T) {
	ft := &fakeTransport{script: []fakeReply{
		{http.StatusOK, 4}, {http.StatusOK, 4}, {http.StatusOK, 2},
		{http.StatusServiceUnavailable, 0}, {http.StatusOK, 1}, {http.StatusBadGateway, 0},
	}}
	clock := &fakeClock{step: time.Millisecond}
	res, err := Run(Config{
		URL:         "http://fake",
		Concurrency: 1,
		Requests:    6,
		Seed:        1,
		Client:      &http.Client{Transport: ft},
		Now:         clock.now,
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" {
		t.Errorf("mode %q, want closed", res.Mode)
	}
	if res.Sent != 6 || res.OK != 4 || res.Rejected != 1 || res.Failed != 1 {
		t.Errorf("sent/ok/rejected/failed = %d/%d/%d/%d, want 6/4/1/1",
			res.Sent, res.OK, res.Rejected, res.Failed)
	}
	if want := (4 + 4 + 2 + 1) / 4.0; res.BatchMean != want {
		t.Errorf("mean batch %v, want %v", res.BatchMean, want)
	}
	if res.BatchHist[4] != 2 || res.BatchHist[2] != 1 || res.BatchHist[1] != 1 {
		t.Errorf("batch histogram %v", res.BatchHist)
	}
	// Fake clock: every now() reading advances 1ms, and shoot reads it
	// twice, so every latency is exactly 1ms.
	if res.LatP50 != time.Millisecond || res.LatP99 != time.Millisecond {
		t.Errorf("p50/p99 = %v/%v, want 1ms each", res.LatP50, res.LatP99)
	}
	if res.ThroughputRPS <= 0 {
		t.Errorf("throughput %v", res.ThroughputRPS)
	}
}

func TestOpenLoopPacesArrivals(t *testing.T) {
	ft := &fakeTransport{script: []fakeReply{{http.StatusOK, 1}}}
	clock := &fakeClock{step: 100 * time.Microsecond}
	var slept []time.Duration
	res, err := Run(Config{
		URL:         "http://fake",
		Concurrency: 2,
		Requests:    10,
		RateHz:      100, // 10ms interval vs 100µs clock steps: sleeps must happen
		InputLen:    4,
		Client:      &http.Client{Transport: ft},
		Now:         clock.now,
		Sleep:       func(d time.Duration) { slept = append(slept, d); clock.advance(d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.RateHz != 100 {
		t.Errorf("mode %q rate %v", res.Mode, res.RateHz)
	}
	if res.OK != 10 {
		t.Errorf("ok %d, want 10", res.OK)
	}
	if len(slept) == 0 {
		t.Error("open loop never paced (no sleeps)")
	}
	for _, d := range slept {
		if d > 10*time.Millisecond {
			t.Errorf("slept %v, beyond the 10ms arrival interval", d)
		}
	}
}

// slowTransport answers every request after advancing the shared fake
// clock by cost: a server that takes cost per request, one at a time.
type slowTransport struct {
	fakeTransport
	clock *fakeClock
	cost  time.Duration
}

func (s *slowTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.clock.advance(s.cost)
	return s.fakeTransport.RoundTrip(req)
}

// TestOpenLoopTimesFromDueTime: requests due every 10ms to a server that
// takes 30ms each, through one connection, queue behind each other. Each
// is timed from its due time, so request k reports its 20ms-per-request
// wait on top of its own 30ms: 30 + 20k ms. Timing from the send would
// report 30ms for every one, hiding the backlog.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clock := &fakeClock{} // readings do not advance it; only the server does
	ft := &slowTransport{fakeTransport: fakeTransport{script: []fakeReply{{http.StatusOK, 1}}}, clock: clock, cost: 30 * time.Millisecond}
	res, err := Run(Config{
		URL:         "http://fake",
		Concurrency: 1,
		Requests:    10,
		RateHz:      100,
		InputLen:    4,
		Client:      &http.Client{Transport: ft},
		Now:         clock.now,
		Sleep:       func(time.Duration) {}, // the schedule never waits on this clock
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 10 {
		t.Fatalf("ok %d, want 10", res.OK)
	}
	// Latencies 30, 50, ..., 210ms: mean 120ms, nearest-rank p50 the 5th
	// (110ms), p95 and p99 the 10th.
	for name, c := range map[string]struct{ got, want time.Duration }{
		"mean": {res.LatMean, 120 * time.Millisecond},
		"p50":  {res.LatP50, 110 * time.Millisecond},
		"p95":  {res.LatP95, 210 * time.Millisecond},
		"p99":  {res.LatP99, 210 * time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("latency %s %v, want %v", name, c.got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{{50, 50 * time.Millisecond}, {95, 95 * time.Millisecond}, {99, 99 * time.Millisecond}} {
		if got := percentile(lats, tc.p); got != tc.want {
			t.Errorf("p%d = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(lats[:1], 99); got != time.Millisecond {
		t.Errorf("p99 of singleton = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %v", got)
	}
}

func TestSpecFetchDeterminesInputLen(t *testing.T) {
	ft := &fakeTransport{script: []fakeReply{{http.StatusOK, 1}}}
	res, err := Run(Config{
		URL:      "http://fake",
		Requests: 2,
		Client:   &http.Client{Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 2 {
		t.Errorf("ok %d, want 2", res.OK)
	}
}

func TestWriteReportShape(t *testing.T) {
	res := &Result{
		Mode: "closed", Concurrency: 4, Sent: 10, OK: 9, Rejected: 1,
		Elapsed: 123 * time.Millisecond, ThroughputRPS: 73.2,
		LatMean: 2 * time.Millisecond, LatP50: time.Millisecond,
		LatP95: 3 * time.Millisecond, LatP99: 5 * time.Millisecond,
		BatchMean: 3.5, BatchHist: map[int]int{1: 2, 4: 7},
	}
	var b bytes.Buffer
	res.WriteReport(&b)
	out := b.String()
	for _, want := range []string{
		"closed loop", "throughput      73.2 req/s", "latency p99     5.000ms",
		"batch=1", "batch=4", "rejected (503)  1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
