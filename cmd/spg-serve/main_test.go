package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spgcnn"
	"spgcnn/internal/serve/loadgen"
)

// tinyNet keeps the end-to-end test fast: one small conv plus a head.
const tinyNet = `
name: "servetiny"
input { channels: 1 height: 12 width: 12 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "fc0" type: "fc" outputs: 5 }
`

// startServe runs the real spg-serve entrypoint in a goroutine and waits
// for its listener. Returns the bound address, a stop func that drains
// and joins, and the command's stdout (filled after stop).
func startServe(t *testing.T, extraArgs ...string) (addr string, stop func() string) {
	t.Helper()
	dir := t.TempDir()
	netFile := filepath.Join(dir, "net.prototxt")
	if err := os.WriteFile(netFile, []byte(tinyNet), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	serveReadyHook = func(a string) { ready <- a }
	stopCh = make(chan struct{})
	t.Cleanup(func() { serveReadyHook = nil; stopCh = nil })

	var out strings.Builder
	errCh := make(chan error, 1)
	args := append([]string{"-file", netFile, "-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { errCh <- run(args, &out) }()

	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("spg-serve exited before listening: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("spg-serve did not come up")
	}
	stopped := false
	stop = func() string {
		if !stopped {
			stopped = true
			close(stopCh)
			if err := <-errCh; err != nil {
				t.Fatalf("spg-serve run: %v\n%s", err, out.String())
			}
		}
		return out.String()
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

// TestServeEndToEnd boots the real spg-serve command on loopback, drives
// it with the loadgen package under concurrency in both loop modes,
// scrapes /metrics MID-RUN, and checks the load report and the shutdown
// epilogue agree.
func TestServeEndToEnd(t *testing.T) {
	addr, stop := startServe(t, "-max-batch", "4", "-max-delay", "2ms", "-replicas", "2", "-drift")
	url := "http://" + addr

	// Mid-run scrape: fire a slice of load, then read /metrics while the
	// server is live (the endpoint rides the serve mux, PR 2 shape).
	res1, err := loadgen.Run(loadgen.Config{URL: url, Concurrency: 4, Requests: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(b)
	for _, want := range []string{
		"spg_serve_queue_depth", "spg_serve_requests_total", "spg_serve_batches_total", "spg_serve_batch_size",
		"spg_serve_goodput_ratio", "spg_serve_replicas 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("mid-run /metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "spg_workers") {
		t.Error("mid-run /metrics missing the bound exec-context series (spg_workers)")
	}
	for _, want := range []string{"spg_runtime_gomaxprocs", "spg_runtime_goroutines", "spg_drift_ewma_ratio"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("mid-run /metrics missing %q", want)
		}
	}

	// /healthz rides along too.
	hc, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hc.Body)
	hc.Body.Close()
	if hc.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", hc.StatusCode)
	}

	// Second slice, then sanity-check the aggregate.
	res2, err := loadgen.Run(loadgen.Config{URL: url, Concurrency: 4, Requests: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Third slice, open loop: paced arrivals against the same server.
	res3, err := loadgen.Run(loadgen.Config{URL: url, Concurrency: 8, Requests: 60, RateHz: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Mode != "open" || res3.OK != 60 {
		t.Errorf("open-loop slice: mode %q, %d of 60 ok (rejected %d, failed %d)",
			res3.Mode, res3.OK, res3.Rejected, res3.Failed)
	}
	totalOK := res1.OK + res2.OK + res3.OK
	if res1.OK+res2.OK != 80 {
		t.Errorf("%d closed-loop requests succeeded, want 80 (rejected %d+%d, failed %d+%d)",
			res1.OK+res2.OK, res1.Rejected, res2.Rejected, res1.Failed, res2.Failed)
	}
	// Under 4 concurrent closed-loop clients the admission queue must have
	// coalesced at least some requests into multi-row batches.
	if res1.BatchMean <= 1 && res2.BatchMean <= 1 {
		t.Errorf("no dynamic batching happened (mean batch %.2f, %.2f)", res1.BatchMean, res2.BatchMean)
	}
	// p99 sanity: positive and under a generous ceiling — this is a
	// correctness bound (nothing hung), not a performance assertion.
	for i, r := range []*loadgen.Result{res1, res2} {
		if r.LatP99 <= 0 || r.LatP99 > 10*time.Second {
			t.Errorf("slice %d: implausible p99 %v", i+1, r.LatP99)
		}
		if r.LatP50 > r.LatP99 {
			t.Errorf("slice %d: p50 %v > p99 %v", i+1, r.LatP50, r.LatP99)
		}
	}

	out := stop()
	if !strings.Contains(out, fmt.Sprintf("served %d requests", totalOK)) {
		t.Errorf("epilogue does not report the %d served requests:\n%s", totalOK, out)
	}
	if !strings.Contains(out, "goodput:") {
		t.Errorf("epilogue missing the goodput line:\n%s", out)
	}
	// The observability epilogue: plan-cache accounting, the deployed
	// strategy per layer and bucket, and the drift agreement report.
	if !strings.Contains(out, "plan cache:") || !strings.Contains(out, "measurement passes") {
		t.Errorf("epilogue missing the plan-cache summary:\n%s", out)
	}
	if !strings.Contains(out, "deployed conv0: batch") {
		t.Errorf("epilogue missing the per-layer deployed strategies:\n%s", out)
	}
	if !strings.Contains(out, "agreement per Fig. 1 region:") {
		t.Errorf("epilogue missing the drift agreement report:\n%s", out)
	}
}

// TestServeCheckpointRoundTrip trains one tiny epoch worth of weights via
// the nn stack's Save (through the facade), serves the checkpoint, and
// checks /v1/spec reflects the description.
func TestServeCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "w.ckpt")

	def, err := spgcnn.ParseNet(tinyNet)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addrFile := filepath.Join(dir, "addr")
	addr, _ := startServe(t, "-load", ckpt, "-addr-file", addrFile, "-max-batch", "2")

	// -addr-file wrote the bound address for scripts.
	b, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(b)); got != addr {
		t.Errorf("addr-file %q != bound %q", got, addr)
	}

	res, err := loadgen.Run(loadgen.Config{URL: "http://" + addr, Concurrency: 2, Requests: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 8 {
		t.Errorf("ok %d, want 8", res.OK)
	}
}

// TestSlowHeaderIsDisconnected: a client that sends half a request header
// and stalls is dropped once the header timeout runs out, rather than
// holding its connection open.
func TestSlowHeaderIsDisconnected(t *testing.T) {
	addr, _ := startServe(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/infer HTTP/1.1\r\nHost: spg\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	n, err := conn.Read(make([]byte, 512))
	if err != io.EOF {
		t.Fatalf("half a header: read %d bytes, %v after %v; want the server to close the connection",
			n, err, time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestRunRejectsBadFlags pins the argument-validation error paths.
func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-net", "nope"}, &out); err == nil {
		t.Error("unknown builtin accepted")
	}
	if err := run([]string{"-strategy", "nope"}, &out); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run([]string{"-file", "/does/not/exist"}, &out); err == nil {
		t.Error("missing netdef file accepted")
	}
}
