package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spgcnn/internal/core"
	"spgcnn/internal/metrics"
	"spgcnn/internal/netdef"
	"spgcnn/internal/rng"
)

func testServer(t *testing.T, maxDelay time.Duration, maxBatch, queueCap int, reg *metrics.Registry) (*Server, *httptest.Server) {
	t.Helper()
	def, err := netdef.Parse(diffNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	model, err := NewModel(def, ModelConfig{
		Replicas: 1,
		Buckets:  DefaultBuckets(maxBatch),
		Planner:  pinnedPlanner(st),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	model.Warmup()
	srv, err := New(Config{
		Model:    model,
		MaxBatch: maxBatch,
		MaxDelay: maxDelay,
		QueueCap: queueCap,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postInfer(t *testing.T, url string, input []float32) (inferResponse, int) {
	t.Helper()
	body, _ := json.Marshal(inferRequest{Input: input})
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return inferResponse{}, resp.StatusCode
	}
	var out inferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

// TestServerCoalescesConcurrentRequests drives C concurrent requests with
// a generous coalescing window and checks that at least one executed
// batch held more than one request, responses carry sane fields, and the
// metrics endpoint exports the serving series mid-run.
func TestServerCoalescesConcurrentRequests(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, ts := testServer(t, 20*time.Millisecond, 4, 16, reg)

	r := rng.New(5)
	input := make([]float32, 14*14)
	for i := range input {
		input[i] = r.Float32()
	}

	const C = 8
	var wg sync.WaitGroup
	sawBatched := false
	var mu sync.Mutex
	for i := 0; i < C; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, code := postInfer(t, ts.URL, input)
			if code != http.StatusOK {
				t.Errorf("status %d", code)
				return
			}
			if len(out.Output) != 7 {
				t.Errorf("got %d logits, want 7", len(out.Output))
			}
			mu.Lock()
			if out.Batch > 1 {
				sawBatched = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if !sawBatched {
		t.Error("no request was served in a coalesced batch (batch > 1)")
	}

	st := srv.Stats()
	if st.Requests != C || st.Images != C {
		t.Errorf("stats: %d requests, %d images; want %d each", st.Requests, st.Images, C)
	}
	if st.Batches >= C {
		t.Errorf("%d batches for %d requests — no coalescing happened", st.Batches, C)
	}

	// Mid-run metrics scrape: the serve series must be present.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(b)
	for _, want := range []string{
		"spg_serve_queue_depth", "spg_serve_requests_total", "spg_serve_batches_total",
		"spg_serve_batch_size", "spg_serve_request_seconds", "spg_serve_goodput_ratio",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestServerBackpressure503 fills the queue to provable capacity and
// checks the next submission gets 503 with Retry-After while the admitted
// ones still complete. The server is assembled white-box with NO batch
// workers and an hour-long coalescing delay, so "queue full" is a
// deterministic state, not a race against a fast worker draining it.
func TestServerBackpressure503(t *testing.T) {
	def, err := netdef.Parse(diffNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	model, err := NewModel(def, ModelConfig{
		Replicas: 1,
		Buckets:  DefaultBuckets(4),
		Planner:  pinnedPlanner(st),
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	model.Warmup()

	srv := &Server{model: model, q: newQueue(4, 4, time.Hour), maxBatch: 4}
	srv.bindMetrics(nil)
	srv.mux = http.NewServeMux()
	srv.mux.HandleFunc("/v1/infer", srv.handleInfer)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	input := make([]float32, 14*14)
	body, _ := json.Marshal(inferRequest{Input: input})
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			return -1, ""
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// Fill the queue to capacity; these block until a worker drains them.
	var wg sync.WaitGroup
	statuses := make(chan int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := post()
			statuses <- code
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.q.depth() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the queue to fill")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue provably full: the next submission must reject.
	code, retryAfter := post()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submission against a full queue got %d, want 503", code)
	}
	if retryAfter == "" {
		t.Error("503 without Retry-After")
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Errorf("Stats().Rejected = %d, want 1", got)
	}

	// Start the batch worker: the four admitted requests must drain OK.
	srv.wg.Add(1)
	go srv.worker(0)
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
	srv.Close()
}

// TestServerDrainOnClose submits requests and closes mid-flight: every
// admitted request must be answered (drained), and post-close submissions
// must reject.
func TestServerDrainOnClose(t *testing.T) {
	srv, ts := testServer(t, 5*time.Millisecond, 4, 16, nil)

	input := make([]float32, 14*14)
	const C = 12
	var wg sync.WaitGroup
	var okCount, rejCount int
	var mu sync.Mutex
	for i := 0; i < C; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, code := postInfer(t, ts.URL, input)
			mu.Lock()
			defer mu.Unlock()
			switch code {
			case http.StatusOK:
				okCount++
			case http.StatusServiceUnavailable:
				rejCount++
			default:
				t.Errorf("status %d", code)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	srv.Close() // races the submissions deliberately
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if okCount+rejCount != C {
		t.Fatalf("%d ok + %d rejected != %d requests (lost responses)", okCount, rejCount, C)
	}
	if _, code := postInfer(t, ts.URL, input); code != http.StatusServiceUnavailable {
		t.Fatalf("post-close request got %d, want 503", code)
	}
}

// TestServerInferBodyLimit: a /v1/infer body one byte over maxInferBody is
// refused with 413 before it is decoded, and the server goes on answering:
// a body exactly at the limit and the next ordinary request are served.
func TestServerInferBodyLimit(t *testing.T) {
	srv, ts := testServer(t, time.Millisecond, 4, 16, nil)
	input := make([]float32, srv.model.InLen())
	limit := maxInferBody(len(input))
	// padded is a well-formed request of exactly n bytes: leading
	// whitespace the decoder must read through before the value.
	padded := func(n int64) []byte {
		doc, _ := json.Marshal(inferRequest{Input: input})
		return append(bytes.Repeat([]byte(" "), int(n)-len(doc)), doc...)
	}
	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := post(padded(limit + 1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of limit+1 bytes got %d, want 413", code)
	}
	if code := post(padded(limit)); code != http.StatusOK {
		t.Fatalf("body of exactly limit bytes got %d, want 200", code)
	}
	if out, code := postInfer(t, ts.URL, input); code != http.StatusOK || len(out.Output) != 7 {
		t.Fatalf("ordinary request after the refusal got %d with %d logits", code, len(out.Output))
	}
	if st := srv.Stats(); st.Requests != 2 {
		t.Fatalf("%d requests admitted, want 2 (the oversized one never reaches the queue)", st.Requests)
	}
}
