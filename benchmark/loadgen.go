package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The harness's own load generator. Everything random comes from the seed;
// the server only ever sees the generated request bodies.

func seededRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// pool is the seeded set of distinct request inputs with their pre-encoded
// JSON bodies and the oracle's reference outputs.
type pool struct {
	inputs [][]float32
	bodies [][]byte
	want   [][]float32 // set once the oracle has run
}

// newPool draws n inputs of inLen standard-normal values. Bodies carry the
// shortest decimal that round-trips each float32, so the server decodes
// exactly the values the oracle saw.
func newPool(seed uint64, n, inLen int) *pool {
	r := seededRand(seed, 0x1f)
	p := &pool{}
	for i := 0; i < n; i++ {
		in := make([]float32, inLen)
		body := []byte(`{"input":[`)
		for j := range in {
			in[j] = float32(r.NormFloat64())
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, float64(in[j]), 'g', -1, 32)
		}
		body = append(body, "]}"...)
		p.inputs = append(p.inputs, in)
		p.bodies = append(p.bodies, body)
	}
	return p
}

// arrival is one scheduled open-loop request.
type arrival struct {
	Due   time.Duration // offset from the start of the window
	Step  int           // which rate step it belongs to
	Input int           // pool index
}

// rateSteps splits a window across the fixed rates: the middle rate gets
// half, the others share the rest equally (one rate gets it all).
func rateSteps(window time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	if n < 3 {
		for i := range out {
			out[i] = window / time.Duration(n)
		}
		return out
	}
	for i := range out {
		out[i] = window / 2 / time.Duration(n-1)
	}
	out[n/2] = window / 2
	return out
}

// poissonSchedule builds the open-loop arrival schedule: within each rate
// step the arrivals are a Poisson process conditioned on its expected count
// (rate x duration independent uniform times, sorted), so every seed offers
// the same number of requests while the gaps stay exponential-like. The
// same seed always gives the same schedule.
func poissonSchedule(seed uint64, ratesHz []float64, window time.Duration, poolN int) []arrival {
	r := seededRand(seed, 0x2e)
	var out []arrival
	lo := time.Duration(0)
	for step, d := range rateSteps(window, len(ratesHz)) {
		n := int(math.Round(ratesHz[step] * d.Seconds()))
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = lo + time.Duration(r.Float64()*float64(d))
		}
		sort.Slice(at, func(a, b int) bool { return at[a] < at[b] })
		for _, t := range at {
			out = append(out, arrival{Due: t, Step: step, Input: r.IntN(poolN)})
		}
		lo += d
	}
	return out
}

// sample is one finished (or failed) request as the client saw it.
type sample struct {
	Step      int
	OK        bool    // 200, decoded, argmax and values match the oracle
	Wrong     bool    // 200 with an output that does not match the oracle
	Rejected  bool    // 503
	LatencyMs float64 // closed loop: send to response; open loop: due time to response
	LagMs     float64 // open loop: how late the generator sent it
	QueueMs   float64 // from the response body
	ComputeMs float64 // from the response body
	ClientMs  float64 // generator's own cost: building the request, decoding and checking the response
	Traced    bool
}

type inferResponse struct {
	Output    []float32 `json:"output"`
	Argmax    int       `json:"argmax"`
	Batch     int       `json:"batch"`
	Bucket    int       `json:"bucket"`
	QueueMs   float64   `json:"queue_ms"`
	ComputeMs float64   `json:"compute_ms"`
}

// conn is one client connection: its own transport so it holds exactly one
// TCP connection to the server.
type conn struct {
	client *http.Client
	url    string
	buf    bytes.Buffer
}

func newConn(baseURL string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: baseURL + "/v1/infer"}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// infer posts pool input i and checks the response against the oracle. It
// fills the sample's outcome, server-side times and client cost; the caller
// owns the latency fields.
func (c *conn) infer(p *pool, i int, s *sample) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(p.bodies[i]))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t1 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if err != nil {
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.Rejected = resp.StatusCode == http.StatusServiceUnavailable
		return
	}
	var out inferResponse
	if json.Unmarshal(c.buf.Bytes(), &out) != nil {
		s.Wrong = true
		return
	}
	s.QueueMs, s.ComputeMs = out.QueueMs, out.ComputeMs
	s.OK = matches(out.Output, out.Argmax, p.want[i])
	s.Wrong = !s.OK
	s.ClientMs = ms(t1.Sub(t0)) + ms(time.Since(t2))
}

// matches is the per-response oracle check: same argmax, every value within
// respTol.
func matches(got []float32, argmax int, want []float32) bool {
	if len(got) != len(want) || len(want) == 0 {
		return false
	}
	best := 0
	for i, v := range want {
		if d := math.Abs(float64(got[i] - v)); !(d <= respTol) {
			return false
		}
		if v > want[best] {
			best = i
		}
	}
	return argmax == best
}

// closedLoop runs conns clients against url until the deadline; each sends
// its next request only after the previous response. traced, when non-nil,
// says whether a request starting at the given offset belongs to a traced
// slice (span recording on).
func closedLoop(url string, p *pool, conns int, seed uint64, window time.Duration,
	rec *recorder, traced func(time.Duration) bool) []sample {
	start := time.Now()
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn(url)
			defer cn.close()
			r := seededRand(seed, 0x3c+uint64(c))
			for {
				off := time.Since(start)
				if off >= window {
					return
				}
				s := sample{Traced: traced != nil && traced(off)}
				cn.infer(p, r.IntN(len(p.bodies)), &s)
				done := time.Since(start)
				s.LatencyMs = ms(done - off)
				if s.Traced {
					recordRequest(rec, start, off, done, s)
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// openLoop sends the schedule over at most conns connections: each
// connection takes the next unsent arrival, sleeps until it is due (or
// sends at once when it is already late, which is how a stall delays later
// requests) and times the request from its due time. Arrivals still unsent
// grace after the window's end are returned as failed samples.
func openLoop(url string, p *pool, conns int, sched []arrival, window, grace time.Duration,
	rec *recorder, traced func(i int) bool) []sample {
	start := time.Now()
	out := make([]sample, len(sched))
	sent := make([]bool, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := newConn(url)
			defer cn.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if wait := a.Due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				off := time.Since(start)
				if off > window+grace {
					return
				}
				sent[i] = true
				s := sample{Step: a.Step, LagMs: ms(off - a.Due), Traced: traced != nil && traced(i)}
				cn.infer(p, a.Input, &s)
				done := time.Since(start)
				s.LatencyMs = ms(done - a.Due)
				if s.Traced {
					recordRequest(rec, start, off, done, s)
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	for i, a := range sched {
		if !sent[i] {
			out[i] = sample{Step: a.Step}
		}
	}
	return out
}

// recordRequest records the client-side span tree of one request: a
// `request` span from send to response whose children serve.queue and
// serve.compute carry the durations the response body reported. Their
// positions inside the request are synthetic (back to back, ending where
// the response arrived minus half the remainder); the remainder — HTTP,
// JSON and hand-offs — is the request span's self time.
func recordRequest(rec *recorder, start time.Time, sent, done time.Duration, s sample) {
	if rec == nil {
		return
	}
	op := rec.newOp()
	base := int64(start.Sub(rec.t0))
	lo, hi := base+int64(sent), base+int64(done)
	id := rec.add("request", lo, hi, -1, op)
	if id < 0 || !s.OK {
		return
	}
	q, c := int64(s.QueueMs*1e6), int64(s.ComputeMs*1e6)
	rem := (hi - lo) - q - c
	if rem < 0 {
		rem = 0
	}
	qlo := lo + rem/2
	rec.add("serve.queue", qlo, qlo+q, id, op)
	rec.add("serve.compute", qlo+q, qlo+q+c, id, op)
}

// warmRequestsOn sends n discarded requests on each of conns connections,
// one connection at a time.
func warmRequestsOn(url string, p *pool, conns, n int) error {
	for c := 0; c < conns; c++ {
		cn := newConn(url)
		for i := 0; i < n; i++ {
			var s sample
			cn.infer(p, i%len(p.bodies), &s)
			if !s.OK {
				cn.close()
				return fmt.Errorf("warm-up request %d on connection %d failed or mismatched the oracle", i, c)
			}
		}
		cn.close()
	}
	return nil
}
