package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spgcnn/internal/metrics"
	"spgcnn/internal/tensor"
	"spgcnn/internal/trace"
)

// request is one admitted inference request in flight through the queue.
type request struct {
	input *tensor.Tensor
	enq   time.Time
	done  chan result
}

// result is what a batch worker hands back to the waiting HTTP handler.
type result struct {
	output    []float32
	argmax    int
	batch     int // real (unpadded) rows of the executed batch
	bucket    int // padded batch size actually run
	queueWait time.Duration
	compute   time.Duration
	err       error
}

// Config assembles a Server.
type Config struct {
	// Model is the replica set requests run on (required).
	Model *Model
	// MaxBatch caps how many requests coalesce into one forward pass
	// (default: the model's largest bucket).
	MaxBatch int
	// MaxDelay is how long the queue holds a partial batch open for
	// late-arriving requests before flushing it. Zero is greedy batching:
	// flush immediately, batches form only from requests that arrived
	// while every worker was busy.
	MaxDelay time.Duration
	// QueueCap bounds the admission queue; submissions beyond it reject
	// with 503 + Retry-After (default: 8 × MaxBatch).
	QueueCap int
	// Metrics, when non-nil, receives the serving series: queue depth,
	// batch-size histogram, request/queue-wait latencies, goodput.
	Metrics *metrics.Registry
	// Trace, when non-nil, puts per-batch spans and queue-wait
	// attribution on the trace timeline.
	Trace *trace.Recorder
}

// Server is the serving path: HTTP handlers feeding the dynamic-batching
// admission queue, drained by one batch-worker goroutine per model
// replica.
type Server struct {
	model    *Model
	q        *queue
	maxBatch int
	mux      *http.ServeMux
	rec      *trace.Recorder
	wg       sync.WaitGroup
	closed   atomic.Bool

	// counters (atomics: exported via GaugeFunc and read by Stats)
	requests     atomic.Int64
	rejected     atomic.Int64
	failed       atomic.Int64
	batches      atomic.Int64
	images       atomic.Int64
	paddingRows  atomic.Int64
	usefulFlops  atomic.Int64
	paddingFlops atomic.Int64

	reqLatency   *metrics.Histogram
	queueWait    *metrics.Histogram
	batchSizes   *metrics.Histogram
	inflight     *metrics.Gauge
	reqCounter   *metrics.Counter
	rejCounter   *metrics.Counter
	batchCounter *metrics.Counter
}

// New builds the server and starts its batch workers. Close drains and
// stops them.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	maxBatch := cfg.MaxBatch
	buckets := cfg.Model.Buckets()
	if maxBatch < 1 {
		maxBatch = buckets[len(buckets)-1]
	}
	queueCap := cfg.QueueCap
	if queueCap < 1 {
		queueCap = 8 * maxBatch
	}
	s := &Server{
		model:    cfg.Model,
		q:        newQueue(maxBatch, queueCap, cfg.MaxDelay),
		maxBatch: maxBatch,
		rec:      cfg.Trace,
	}
	s.bindMetrics(cfg.Metrics)

	s.mux = http.NewServeMux()
	if cfg.Metrics != nil {
		s.mux.Handle("/", metrics.Handler(cfg.Metrics))
	}
	s.mux.HandleFunc("/v1/infer", s.handleInfer)
	s.mux.HandleFunc("/v1/spec", s.handleSpec)

	for i := 0; i < cfg.Model.Replicas(); i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// bindMetrics registers the serving series (no-op registry when nil, so
// the hot path stays unconditional).
func (s *Server) bindMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	reg.GaugeFunc("spg_serve_queue_depth",
		"Requests waiting in the dynamic-batching admission queue.",
		func() float64 { return float64(s.q.depth()) })
	reg.GaugeFunc("spg_serve_replicas",
		"Model replicas draining the admission queue.",
		func() float64 { return float64(s.model.Replicas()) })
	reg.GaugeFunc(
		"spg_serve_goodput_ratio",
		"Useful forward flops over total (useful + padding) — Eq. 9's goodput discount applied to serving padding.",
		func() float64 {
			u, p := s.usefulFlops.Load(), s.paddingFlops.Load()
			if u+p == 0 {
				return 1
			}
			return float64(u) / float64(u+p)
		})
	reg.GaugeFunc("spg_serve_padding_rows_total",
		"Zero-filled batch rows executed to pad ragged batches to their bucket.",
		func() float64 { return float64(s.paddingRows.Load()) })
	reg.GaugeFunc("spg_serve_images_total",
		"Real (unpadded) images served.",
		func() float64 { return float64(s.images.Load()) })
	s.reqCounter = reg.Counter("spg_serve_requests_total", "Inference requests admitted.")
	s.rejCounter = reg.Counter("spg_serve_rejected_total", "Inference requests rejected with 503 (queue full or shutting down).")
	s.batchCounter = reg.Counter("spg_serve_batches_total", "Forward passes executed by batch workers.")
	s.inflight = reg.Gauge("spg_serve_inflight", "Requests admitted and not yet answered.")
	s.reqLatency = reg.Histogram("spg_serve_request_seconds",
		"End-to-end request latency (admission to response).", metrics.DefSpanBuckets())
	s.queueWait = reg.Histogram("spg_serve_queue_wait_seconds",
		"Time requests spent coalescing in the admission queue.", metrics.DefSpanBuckets())
	s.batchSizes = reg.Histogram("spg_serve_batch_size",
		"Real rows per executed batch.", batchBounds(s.maxBatch))
}

// batchBounds returns power-of-two histogram bounds covering 1..maxBatch.
func batchBounds(maxBatch int) []float64 {
	var out []float64
	for b := 1; b <= maxBatch; b *= 2 {
		out = append(out, float64(b))
	}
	return out
}

// Handler returns the server's HTTP handler: /v1/infer, /v1/spec, and —
// when a metrics registry is configured — /metrics, /healthz and
// /debug/pprof.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the queue (every admitted request is answered) and stops
// the batch workers. Subsequent submissions reject with 503.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.q.close()
	s.wg.Wait()
}

// Stats is a snapshot of the serving counters.
type Stats struct {
	Requests, Rejected, Failed int64
	Batches, Images            int64
	PaddingRows                int64
	UsefulFlops, PaddingFlops  int64
}

// GoodputRatio returns useful/(useful+padding) flops, 1 when idle.
func (st Stats) GoodputRatio() float64 {
	if st.UsefulFlops+st.PaddingFlops == 0 {
		return 1
	}
	return float64(st.UsefulFlops) / float64(st.UsefulFlops+st.PaddingFlops)
}

// MeanBatch returns the mean real rows per executed batch.
func (st Stats) MeanBatch() float64 {
	if st.Batches == 0 {
		return 0
	}
	return float64(st.Images) / float64(st.Batches)
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:     s.requests.Load(),
		Rejected:     s.rejected.Load(),
		Failed:       s.failed.Load(),
		Batches:      s.batches.Load(),
		Images:       s.images.Load(),
		PaddingRows:  s.paddingRows.Load(),
		UsefulFlops:  s.usefulFlops.Load(),
		PaddingFlops: s.paddingFlops.Load(),
	}
}

// worker is one batch-worker goroutine: it owns model replica `replica`
// exclusively and drains the admission queue until close-and-empty.
func (s *Server) worker(replica int) {
	defer s.wg.Done()
	em := s.rec.Emitter(replica, 0)
	for {
		batch, ok := s.q.next()
		if !ok {
			return
		}
		s.runBatch(replica, em, batch)
	}
}

// runBatch pads, executes and completes one cut batch. Every request gets
// exactly one result, even when the forward pass panics.
func (s *Server) runBatch(replica int, em *trace.Emitter, batch []*request) {
	start := time.Now()
	var maxWait time.Duration
	ins := make([]*tensor.Tensor, len(batch))
	for i, rq := range batch {
		ins[i] = rq.input
		if w := start.Sub(rq.enq); w > maxWait {
			maxWait = w
		}
	}
	outs, bucket, err := s.forward(replica, ins)
	compute := time.Since(start)

	s.batches.Add(1)
	s.batchCounter.Inc()
	s.images.Add(int64(len(batch)))
	s.batchSizes.Observe(float64(len(batch)))
	padRows := int64(bucket - len(batch))
	s.paddingRows.Add(padRows)
	s.usefulFlops.Add(int64(len(batch)) * s.model.FlopsPerImage())
	s.paddingFlops.Add(padRows * s.model.FlopsPerImage())
	em.SpanDetail("serve", "serve/batch", fmt.Sprintf("rows=%d bucket=%d", len(batch), bucket),
		float64(len(batch)), start, compute)
	em.Instant("serve", "serve/queue-wait", "oldest request in batch", maxWait.Seconds())

	for i, rq := range batch {
		res := result{batch: len(batch), bucket: bucket, queueWait: start.Sub(rq.enq), compute: compute}
		if err != nil {
			res.err = err
		} else {
			res.output = outs[i]
			res.argmax = argmax(outs[i])
		}
		rq.done <- res
	}
}

// forward runs the model, converting a panic into an error so a poisoned
// batch fails its requests instead of deadlocking them.
func (s *Server) forward(replica int, ins []*tensor.Tensor) (outs [][]float32, bucket int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: forward pass panicked: %v\n%s", r, debug.Stack())
		}
	}()
	outs, bucket = s.model.InferBatch(replica, ins)
	return outs, bucket, nil
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// inferRequest is the /v1/infer JSON body.
type inferRequest struct {
	Input []float32 `json:"input"`
}

// maxInferBody bounds a /v1/infer request body for a model of inLen input
// values: 64 bytes per value is several times the longest JSON number, and
// 64 KiB covers the envelope and whitespace.
func maxInferBody(inLen int) int64 { return 64*int64(inLen) + 64<<10 }

// inferResponse is the /v1/infer JSON response.
type inferResponse struct {
	Output    []float32 `json:"output"`
	Argmax    int       `json:"argmax"`
	Batch     int       `json:"batch"`
	Bucket    int       `json:"bucket"`
	QueueMs   float64   `json:"queue_ms"`
	ComputeMs float64   `json:"compute_ms"`
}

// specResponse is the /v1/spec JSON response — what a load generator needs
// to size its request vectors.
type specResponse struct {
	Net      string `json:"net"`
	InDims   []int  `json:"input_dims"`
	InLen    int    `json:"input_len"`
	Classes  int    `json:"classes"`
	MaxBatch int    `json:"max_batch"`
	Replicas int    `json:"replicas"`
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(specResponse{
		Net:      s.model.Def().Name,
		InDims:   s.model.InDims(),
		InLen:    s.model.InLen(),
		Classes:  s.model.OutLen(),
		MaxBatch: s.maxBatch,
		Replicas: s.model.Replicas(),
	})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req inferRequest
	body := http.MaxBytesReader(w, r.Body, maxInferBody(s.model.InLen()))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), status)
		return
	}
	if len(req.Input) != s.model.InLen() {
		http.Error(w, fmt.Sprintf("input length %d, model wants %d", len(req.Input), s.model.InLen()),
			http.StatusBadRequest)
		return
	}
	in := tensor.New(s.model.InDims()...)
	copy(in.Data, req.Input)

	rq := &request{input: in, done: make(chan result, 1)}
	if err := s.q.submit(rq); err != nil {
		s.rejected.Add(1)
		s.rejCounter.Inc()
		// Backpressure: tell closed-loop clients when to come back instead
		// of letting the queue build an unbounded latency tail.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.requests.Add(1)
	s.reqCounter.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	res := <-rq.done
	s.queueWait.Observe(res.queueWait.Seconds())
	s.reqLatency.Observe(time.Since(rq.enq).Seconds())
	if res.err != nil {
		s.failed.Add(1)
		http.Error(w, res.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(inferResponse{
		Output:    res.output,
		Argmax:    res.argmax,
		Batch:     res.batch,
		Bucket:    res.bucket,
		QueueMs:   float64(res.queueWait) / float64(time.Millisecond),
		ComputeMs: float64(res.compute) / float64(time.Millisecond),
	})
}
