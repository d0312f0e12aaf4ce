// Package loadgen drives an spg-serve endpoint with synthetic inference
// traffic and reports throughput and tail latency. It supports the two
// canonical load models:
//
//   - closed loop: C workers, each with one request outstanding — the
//     arrival rate adapts to the server (throughput measurement);
//   - open loop: requests arrive on a fixed schedule regardless of
//     completions — the latency distribution under a target rate
//     (tail-latency measurement; late arrivals queue, they do not skip,
//     and each is timed from when it was due, so the wait a slow server
//     imposes on later requests counts).
//
// The clock, sleeper and HTTP client are injectable so the report path is
// testable with a deterministic fake server and fake time.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"spgcnn/internal/rng"
)

// Config describes one load-generation run.
type Config struct {
	// URL is the server base URL (e.g. http://127.0.0.1:8080).
	URL string
	// Concurrency is the closed-loop worker count (also the in-flight cap
	// for open loop). Default 1.
	Concurrency int
	// Requests is the total request budget. Default 100.
	Requests int
	// RateHz, when > 0, switches to open-loop arrivals at that rate; each
	// request's latency then runs from when it was due, not when sent.
	RateHz float64
	// InputLen is the flat input length; 0 fetches it from /v1/spec.
	InputLen int
	// Seed seeds the synthetic input generator.
	Seed uint64
	// Timeout bounds each request (default 30s).
	Timeout time.Duration

	// Client, Now and Sleep are injectable for deterministic tests; nil
	// means the real http.DefaultClient / time.Now / time.Sleep.
	Client *http.Client
	Now    func() time.Time
	Sleep  func(time.Duration)
}

// Result is the aggregate outcome of a run.
type Result struct {
	Mode        string // "closed" or "open"
	Concurrency int
	RateHz      float64 // open loop only
	Sent        int
	OK          int
	Rejected    int // 503s
	Failed      int // transport errors and non-200/503 statuses

	Elapsed       time.Duration
	ThroughputRPS float64

	LatMean time.Duration
	LatP50  time.Duration
	LatP95  time.Duration
	LatP99  time.Duration

	BatchMean float64     // mean server-side batch size over OK responses
	BatchHist map[int]int // server-side batch size -> count
}

type inferRequest struct {
	Input []float32 `json:"input"`
}

type inferResponse struct {
	Batch int `json:"batch"`
}

type specResponse struct {
	InputLen int `json:"input_len"`
}

// Run drives the configured load and aggregates the result.
func Run(cfg Config) (*Result, error) {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 100
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}

	inputLen := cfg.InputLen
	if inputLen <= 0 {
		var err error
		inputLen, err = fetchInputLen(client, cfg.URL)
		if err != nil {
			return nil, err
		}
	}

	// Pre-encode request bodies: a small pool of distinct synthetic inputs
	// so generation cost never shows up inside the measured window.
	r := rng.New(cfg.Seed)
	pool := make([][]byte, min(cfg.Requests, 16))
	for i := range pool {
		in := make([]float32, inputLen)
		for j := range in {
			in[j] = r.Float32()
		}
		b, err := json.Marshal(inferRequest{Input: in})
		if err != nil {
			return nil, err
		}
		pool[i] = b
	}

	type sample struct {
		lat   time.Duration
		batch int
		code  int // 0 = transport failure
	}
	samples := make([]sample, cfg.Requests)

	// shoot sends request i and times it from start: the send in closed
	// loop, the due time in open loop.
	shoot := func(i int, start time.Time) {
		resp, err := client.Post(cfg.URL+"/v1/infer", "application/json",
			bytes.NewReader(pool[i%len(pool)]))
		if err != nil {
			samples[i] = sample{code: 0}
			return
		}
		var out inferResponse
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&out)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		samples[i] = sample{lat: now().Sub(start), batch: out.Batch, code: resp.StatusCode}
	}

	res := &Result{Concurrency: cfg.Concurrency, BatchHist: map[int]int{}}
	start := now()

	if cfg.RateHz > 0 {
		// Open loop: arrivals on a fixed schedule; a bounded worker pool
		// absorbs them so a slow server builds queueing delay, not
		// unbounded goroutines.
		res.Mode = "open"
		res.RateHz = cfg.RateHz
		interval := time.Duration(float64(time.Second) / cfg.RateHz)
		type job struct {
			i   int
			due time.Time
		}
		jobs := make(chan job, cfg.Requests)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					shoot(j.i, j.due)
				}
			}()
		}
		next := start
		for i := 0; i < cfg.Requests; i++ {
			if d := next.Sub(now()); d > 0 {
				sleep(d)
			}
			jobs <- job{i, next}
			next = next.Add(interval)
		}
		close(jobs)
		wg.Wait()
	} else {
		// Closed loop: each worker keeps exactly one request in flight.
		res.Mode = "closed"
		jobs := make(chan int, cfg.Requests)
		for i := 0; i < cfg.Requests; i++ {
			jobs <- i
		}
		close(jobs)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					shoot(i, now())
				}
			}()
		}
		wg.Wait()
	}
	res.Elapsed = now().Sub(start)

	var lats []time.Duration
	var latSum time.Duration
	var batchSum int
	for _, s := range samples {
		res.Sent++
		switch s.code {
		case http.StatusOK:
			res.OK++
			lats = append(lats, s.lat)
			latSum += s.lat
			res.BatchHist[s.batch]++
			batchSum += s.batch
		case http.StatusServiceUnavailable:
			res.Rejected++
		default:
			res.Failed++
		}
	}
	if res.Elapsed > 0 {
		res.ThroughputRPS = float64(res.OK) / res.Elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.LatMean = latSum / time.Duration(len(lats))
		res.LatP50 = percentile(lats, 50)
		res.LatP95 = percentile(lats, 95)
		res.LatP99 = percentile(lats, 99)
		res.BatchMean = float64(batchSum) / float64(res.OK)
	}
	return res, nil
}

// percentile returns the nearest-rank p-th percentile of sorted lats.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n), nearest-rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func fetchInputLen(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url + "/v1/spec")
	if err != nil {
		return 0, fmt.Errorf("loadgen: fetch spec: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("loadgen: fetch spec: status %d", resp.StatusCode)
	}
	var spec specResponse
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		return 0, fmt.Errorf("loadgen: decode spec: %w", err)
	}
	if spec.InputLen <= 0 {
		return 0, fmt.Errorf("loadgen: spec reports input_len %d", spec.InputLen)
	}
	return spec.InputLen, nil
}

// WriteReport renders the run outcome as the stable text format spg-load
// prints (and the golden test pins).
func (r *Result) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "loadgen report (%s loop)\n", r.Mode)
	fmt.Fprintf(w, "  concurrency     %d\n", r.Concurrency)
	if r.Mode == "open" {
		fmt.Fprintf(w, "  target rate     %.1f req/s\n", r.RateHz)
	}
	fmt.Fprintf(w, "  sent            %d\n", r.Sent)
	fmt.Fprintf(w, "  ok              %d\n", r.OK)
	fmt.Fprintf(w, "  rejected (503)  %d\n", r.Rejected)
	fmt.Fprintf(w, "  failed          %d\n", r.Failed)
	fmt.Fprintf(w, "  elapsed         %s\n", fmtDur(r.Elapsed))
	fmt.Fprintf(w, "  throughput      %.1f req/s\n", r.ThroughputRPS)
	fmt.Fprintf(w, "  latency mean    %s\n", fmtDur(r.LatMean))
	fmt.Fprintf(w, "  latency p50     %s\n", fmtDur(r.LatP50))
	fmt.Fprintf(w, "  latency p95     %s\n", fmtDur(r.LatP95))
	fmt.Fprintf(w, "  latency p99     %s\n", fmtDur(r.LatP99))
	fmt.Fprintf(w, "  mean batch      %.2f\n", r.BatchMean)
	if len(r.BatchHist) > 0 {
		sizes := make([]int, 0, len(r.BatchHist))
		for s := range r.BatchHist {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		fmt.Fprintf(w, "  batch histogram\n")
		for _, s := range sizes {
			fmt.Fprintf(w, "    batch=%-3d %d\n", s, r.BatchHist[s])
		}
	}
}

// fmtDur renders durations with stable millisecond precision so reports
// are comparable across runs.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}
