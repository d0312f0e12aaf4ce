package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spgcnn"
)

// update regenerates testdata/golden.txt from the deterministic fake
// server and clock:
//
//	go test ./cmd/spg-load -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// scriptedTransport answers /v1/spec with a fixed input length, /metrics
// with one serving and one foreign series, and /v1/infer from a fixed
// script of (status, batch) pairs, cycling.
type scriptedTransport struct {
	mu     sync.Mutex
	calls  int
	script []scriptedReply
}

type scriptedReply struct {
	status int
	batch  int
}

func (f *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/v1/spec") {
		return textResp(http.StatusOK, `{"input_len": 8}`), nil
	}
	if strings.HasSuffix(req.URL.Path, "/metrics") {
		return textResp(http.StatusOK, "spg_serve_queue_depth 0\nspg_workers 2\n"), nil
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
		return textResp(rep.status, `{"error":"busy"}`), nil
	}
	return textResp(http.StatusOK,
		fmt.Sprintf(`{"output":[0.5,0.1],"argmax":0,"batch":%d}`, rep.batch)), nil
}

func textResp(status int, body string) *http.Response {
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

// stepClock advances a fixed amount per reading — with one closed-loop
// worker the sequence of readings, and so every latency and the elapsed
// time, is fully deterministic.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func withFakes(script []scriptedReply) func(*spgcnn.LoadConfig) {
	return func(cfg *spgcnn.LoadConfig) {
		clock := &stepClock{}
		cfg.Client = &http.Client{Transport: &scriptedTransport{script: script}}
		cfg.Now = clock.now
		cfg.Sleep = func(time.Duration) {}
	}
}

// TestRunGolden pins the spg-load report byte-for-byte against a
// deterministic fake server and clock. Any diff is an intentional format
// change: regenerate with
//
//	go test ./cmd/spg-load -run Golden -update
func TestRunGolden(t *testing.T) {
	loadCfgHook = withFakes([]scriptedReply{
		{http.StatusOK, 4}, {http.StatusOK, 4}, {http.StatusOK, 4},
		{http.StatusOK, 2}, {http.StatusServiceUnavailable, 0},
		{http.StatusOK, 4}, {http.StatusOK, 1}, {http.StatusOK, 2},
	})
	defer func() { loadCfgHook = nil }()

	var out strings.Builder
	if err := run([]string{"-url", "http://fake", "-c", "1", "-n", "8", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output diverged from testdata/golden.txt\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// TestRunOpenLoopMode checks the open-loop header and pacing fields
// render (same fakes, -rate set) and that -scrape prints the target's
// spg_serve_* series and nothing else.
func TestRunOpenLoopMode(t *testing.T) {
	loadCfgHook = withFakes([]scriptedReply{{http.StatusOK, 1}})
	defer func() { loadCfgHook = nil }()

	var out strings.Builder
	if err := run([]string{"-url", "http://fake", "-c", "2", "-n", "4", "-rate", "50", "-scrape"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"open loop", "target rate     50.0 req/s", "ok              4",
		"server metrics (spg_serve_*)\n  spg_serve_queue_depth 0\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "spg_workers") {
		t.Errorf("-scrape printed a non-serving series:\n%s", out.String())
	}
}

// TestRunErrors: an unreachable server is an error, not a zero report.
func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-url", "http://127.0.0.1:1", "-n", "1", "-timeout", "100ms"}, &out); err == nil {
		t.Error("expected an error for an unreachable server")
	}
}
