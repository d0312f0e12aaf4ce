package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spgcnn/internal/core"
	"spgcnn/internal/netdef"
	"spgcnn/internal/tensor"
)

// TestNonFiniteLogitAnswers500: a logit JSON cannot carry fails the
// request with 500 and counts in Stats().Failed, instead of a 200 with an
// empty body.
func TestNonFiniteLogitAnswers500(t *testing.T) {
	srv, ts := testServer(t, time.Millisecond, 4, 16, nil)
	w := srv.model.replicas[0].Parameters()
	poisoned := false
	for _, p := range w {
		if p.Name == "fc0/W" {
			p.Tensor.Data[0] = float32(math.NaN())
			p.Tensor.Bump()
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("no fc0/W parameter to poison")
	}
	input := make([]float32, srv.model.InLen())
	for i := range input {
		input[i] = 1
	}
	if _, code := postInfer(t, ts.URL, input); code != http.StatusInternalServerError {
		t.Fatalf("request with a NaN logit got %d, want 500", code)
	}
	if st := srv.Stats(); st.Failed != 1 {
		t.Fatalf("Stats().Failed = %d, want 1", st.Failed)
	}
}

// TestPooledRequestsDoNotAlias: with request state pooled, every response
// still carries the logits of its own input. Four clients each post 64
// distinct inputs to a 2-replica server that coalesces them into ragged
// batches; every answer must be bit-identical to the training network's
// Forward of that input.
func TestPooledRequestsDoNotAlias(t *testing.T) {
	def, err := netdef.Parse(diffNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	train, err := netdef.Build(def, netdef.BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := train.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(def, ModelConfig{
		Replicas: 2,
		Buckets:  DefaultBuckets(8),
		Planner:  pinnedPlanner(st),
		Seed:     999,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.LoadWeights(&ckpt); err != nil {
		t.Fatal(err)
	}
	model.Warmup()
	srv, err := New(Config{Model: model, MaxBatch: 8, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	const clients, perClient = 4, 64
	inputs := randInputs(21, clients*perClient, model.InDims())
	want := make([][]float32, len(inputs))
	for i, in := range inputs {
		want[i] = append([]float32(nil), train.Forward([]*tensor.Tensor{in})[0].Data...)
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := c*perClient + k
				out, code := postInfer(t, ts.URL, inputs[i].Data)
				if code != http.StatusOK {
					t.Errorf("input %d: status %d", i, code)
					return
				}
				if len(out.Output) != len(want[i]) {
					t.Errorf("input %d: %d logits, want %d", i, len(out.Output), len(want[i]))
					return
				}
				for j := range out.Output {
					if math.Float32bits(out.Output[j]) != math.Float32bits(want[i][j]) {
						t.Errorf("input %d logit %d: served %v, training Forward %v", i, j, out.Output[j], want[i][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// recordingWriter is a reusable http.ResponseWriter that keeps only the
// status and the body length.
type recordingWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *recordingWriter) Header() http.Header  { return w.h }
func (w *recordingWriter) WriteHeader(code int) { w.code = code }
func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// TestInferAllocations counts every allocation one /v1/infer request
// makes through Server.Handler(), batch worker and model included; only
// the request and writer themselves are built once outside the count.
func TestInferAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops pooled requests under the race detector")
	}
	srv, _ := testServer(t, 0, 4, 16, nil)
	input := make([]float32, srv.model.InLen())
	for i := range input {
		input[i] = float32(i%13) / 7
	}
	body, _ := json.Marshal(inferRequest{Input: input})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
	req.Body = io.NopCloser(rd)
	w := &recordingWriter{h: http.Header{}}
	h := srv.Handler()
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		w.code, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	serve() // fill the pool
	if w.code != http.StatusOK || w.n == 0 {
		t.Fatalf("warm-up request: status %d, %d body bytes", w.code, w.n)
	}
	allocs := testing.AllocsPerRun(200, serve)
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	const budget = 14
	if allocs > budget {
		t.Fatalf("%.1f allocations per request, budget %d", allocs, budget)
	}
	t.Logf("%.1f allocations per request", allocs)
}
