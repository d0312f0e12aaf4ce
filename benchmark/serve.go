package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"
)

// endpoint is a serveRig behind a real loopback listener.
type endpoint struct {
	rig  *serveRig
	http *http.Server
	url  string
	done chan error
}

// listen serves the rig's handler on 127.0.0.1:0.
func listen(rig *serveRig) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	e := &endpoint{rig: rig, http: &http.Server{Handler: rig.handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.http.Serve(ln) }()
	return e, nil
}

// close stops accepting, drains the admission queue and waits for the
// accept loop to end — the shutdown order of cmd/spg-serve.
func (e *endpoint) close() {
	e.http.Close()
	e.rig.close()
	<-e.done
}

func (a serveCounters) minus(b serveCounters) serveCounters {
	return serveCounters{a.Requests - b.Requests, a.Rejected - b.Rejected,
		a.Batches - b.Batches, a.Images - b.Images, a.PaddingRows - b.PaddingRows}
}

func (a serveCounters) plus(b serveCounters) serveCounters {
	return serveCounters{a.Requests + b.Requests, a.Rejected + b.Rejected,
		a.Batches + b.Batches, a.Images + b.Images, a.PaddingRows + b.PaddingRows}
}

// setupServe is one complete serving set-up: parse, build, telemetry
// wiring, cold planning and warm-up of every bucket, listener, discarded
// warm-up requests.
func setupServe(cfg workloadCfg, seed uint64, p *pool) (*endpoint, error) {
	rig, err := buildServe(cfg.Net, cfg, seed, newPlanner())
	if err != nil {
		return nil, err
	}
	e, err := listen(rig)
	if err != nil {
		return nil, err
	}
	if err := warmRequestsOn(e.url, p, cfg.Conns, warmRequests); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// traceSlice is how long a traced closed-loop run records spans before it
// pauses recording for as long again: short enough that both halves see the
// same server, plan and host weather.
const traceSlice = 50 * time.Millisecond

// serveTally accumulates what the ledger needs across a run's segments.
type serveTally struct {
	setupTally
	samples    []sample // every sample (traced run only)
	counters   serveCounters
	gets, hits int64
	warmMs     []float64 // per segment
}

// runServe runs one serving workload. Like runTrain it splits the window
// into cfg.Segments segments, each on its own from-scratch set-up with a
// cold planner; the traced run ends with the probe block on the last one.
func runServe(cfg workloadCfg, seed uint64, seconds float64, traced bool, rec *recorder) (*outcome, error) {
	out := newOutcome()
	inLen, err := servedInputLen(cfg.Net)
	if err != nil {
		return nil, err
	}
	p := newPool(seed, poolSize, inLen)
	if p.want, err = oracleOutputs(cfg.Net, seed, p.inputs); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	segment := time.Duration(seconds * float64(time.Second) / float64(cfg.Segments))
	t := &serveTally{}
	var e *endpoint
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for seg := 0; seg < cfg.Segments; seg++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC() // memory holds one set-up, see runTrain
		start := time.Now()
		if e, err = setupServe(cfg, seed, p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		deployed := map[string]string{}
		e.rig.deployed(deployed)
		out.deploy(deployed)

		got := serveSegment(cfg, e, p, seed+uint64(seg), segment, traced, rec, t, out)
		if traced { // only the ledger needs every sample
			t.samples = append(t.samples, got...)
		}
		t.warmMs = append(t.warmMs, e.rig.warmMs)
		t.add(e.rig.buildMs, e.rig.warmMs-e.rig.warmupAgain(), plannerCounters(e.rig.planner))
	}
	out.rssMB = peakRSSMB()
	// Only an answer that contradicts the oracle makes a run incorrect. An op
	// the loaded host refused, timed out or never sent is counted in failed
	// and misses the limit, but says nothing about the program's outputs.
	out.correct = out.wrong == 0 && out.attempted > 0
	if !traced {
		return out, nil
	}
	serveLedger(cfg, t, out)
	if err := serveProbes(cfg, seed, p, e, segment, out); err != nil {
		return nil, err
	}
	return out, nil
}

// serveSegment drives one segment's load against e, adds it to out and t,
// and returns the samples. End-to-end accounting: a failed, rejected,
// mismatching or unsent op misses the limit; op times are those of the ops
// that came back correct (at the middle rate for the open loop).
func serveSegment(cfg workloadCfg, e *endpoint, p *pool, seed uint64, segment time.Duration,
	traced bool, rec *recorder, t *serveTally, out *outcome) []sample {
	before := e.rig.counters()
	g0, h0 := e.rig.arena()
	rt0 := readRuntime()
	start := time.Now()
	var got []sample
	if cfg.open() {
		sched := poissonSchedule(seed, cfg.RatesHz, segment, poolSize)
		var sel func(int) bool
		if traced {
			sel = func(i int) bool { return i%2 == 1 }
		}
		got = openLoop(e.url, p, cfg.Conns, sched, segment, 2*time.Second, rec, sel)
	} else {
		var sel func(time.Duration) bool
		if traced {
			sel = func(off time.Duration) bool { return (off/traceSlice)%2 == 1 }
		}
		got = closedLoop(e.url, p, cfg.Conns, seed, segment, rec, sel)
	}
	elapsed := time.Since(start).Seconds()
	out.runtime = out.runtime.plus(readRuntime().minus(rt0))
	out.liveMB = append(out.liveMB, liveHeapMB())
	g1, h1 := e.rig.arena()
	t.gets, t.hits = t.gets+g1-g0, t.hits+h1-h0
	t.counters = t.counters.plus(e.rig.counters().minus(before))

	var segOps []float64
	mid := len(cfg.RatesHz) / 2
	images := 0
	for _, s := range got {
		out.attempted++
		if !s.OK {
			out.failed++
			if s.Wrong {
				out.wrong++
			}
			continue
		}
		images++
		if s.LatencyMs <= cfg.LimitMs {
			out.inLimit++
		}
		if !cfg.open() || s.Step == mid {
			segOps = append(segOps, s.LatencyMs)
		}
	}
	out.images += images
	out.elapsed += elapsed
	out.segRate = append(out.segRate, float64(images)/elapsed)
	out.segP50 = append(out.segP50, summarize(segOps).P50)
	out.ops = append(out.ops, segOps...)
	return got
}

// serveLedger fills the ledger rows that come from the samples and the
// tally. Set-up and planner rows are the median over the run's segments.
func serveLedger(cfg workloadCfg, t *serveTally, out *outcome) {
	L := out.ledger
	var queue, compute, overhead, client []float64
	for _, s := range t.samples {
		if !s.OK {
			continue
		}
		queue = append(queue, s.QueueMs)
		compute = append(compute, s.ComputeMs)
		client = append(client, s.ClientMs)
		wire := s.LatencyMs - s.LagMs // send to response
		overhead = append(overhead, wire-s.QueueMs-s.ComputeMs)
	}
	q, c := summarize(queue), summarize(compute)
	L["serve.queue_ms_p50"], L["serve.queue_ms_p95"] = q.P50, q.P95
	L["serve.compute_ms_p50"], L["serve.compute_ms_p95"] = c.P50, c.P95
	L["serve.overhead_ms_p50"] = summarize(overhead).P50
	L["loadgen.client_ms_p50"] = summarize(client).P50
	out.samples["serve.queue_ms"], out.samples["serve.compute_ms"] = q.N, c.N

	d := t.counters
	if d.Batches > 0 {
		L["serve.batch_mean"] = float64(d.Images) / float64(d.Batches)
	}
	if d.Images+d.PaddingRows > 0 {
		L["serve.padding_share"] = float64(d.PaddingRows) / float64(d.Images+d.PaddingRows)
	}
	if d.Requests+d.Rejected > 0 {
		L["serve.rejected_share"] = float64(d.Rejected) / float64(d.Requests+d.Rejected)
	}
	if t.gets > 0 {
		L["tensor.arena_hit_share"] = float64(t.hits) / float64(t.gets)
	}
	L["serve.warmup_ms"] = median(t.warmMs)
	t.fill(L)
	if cfg.open() {
		openLoopLedger(cfg, t.samples, L, out.samples)
	}
	L["bench.trace_overhead_share"] = traceOverhead(cfg, t.samples)
}

// serveProbes is the probe block of a traced serving run, on the last
// segment's endpoint: the micro-timings, direct Model.InferBatch at four
// batch sizes, a rebuild on the now-warm planner and (instrumented
// workload) the telemetry-off comparison.
func serveProbes(cfg workloadCfg, seed uint64, p *pool, e *endpoint, segment time.Duration, out *outcome) error {
	L := out.ledger
	microProbes(L, cfg.Replicas*cfg.Threads)
	for _, n := range []int{1, 2, 5, 8} {
		L[fmt.Sprintf("serve.infer_ms.b%d", n)] = e.rig.inferDirect(n, p.inputs[0], 20)
	}
	start := time.Now()
	again, err := buildServe(cfg.Net, cfg, seed, e.rig.planner)
	if err != nil {
		return err
	}
	again.close()
	L["plan.warm_ms"] = ms(time.Since(start))

	if cfg.Instrumented {
		share, err := telemetryOverhead(cfg, seed, p, e, segment/2)
		if err != nil {
			return err
		}
		L["bench.telemetry_overhead_share"] = share
	}
	return nil
}

// openLoopLedger fills the per-rate latency rows and the highest rate that
// held: p95 within the limit and no backlog left at the end of the step
// (the last tenth of its arrivals were sent less than half the limit late).
func openLoopLedger(cfg workloadCfg, samples []sample, L map[string]float64, counts map[string]int) {
	var lags []float64
	L["loadgen.max_rate_ok_hz"] = 0 // no rate held
	for step, hz := range cfg.RatesHz {
		var lat, lag []float64
		ok := true
		for _, s := range samples {
			if s.Step != step {
				continue
			}
			if !s.OK {
				ok = false
				continue
			}
			lat = append(lat, s.LatencyMs)
			lag = append(lag, s.LagMs)
		}
		lags = append(lags, lag...)
		d := summarize(lat)
		tag := fmt.Sprintf("r%d", step+1)
		L["loadgen.lat_ms_p50."+tag], L["loadgen.lat_ms_p95."+tag] = d.P50, d.P95
		counts["loadgen.lat_ms."+tag] = d.N
		tail := lag[len(lag)-len(lag)/10:]
		if ok && d.N > 0 && d.P95 <= cfg.LimitMs && (len(tail) == 0 || median(tail) <= cfg.LimitMs/2) {
			L["loadgen.max_rate_ok_hz"] = hz
		}
	}
	L["loadgen.send_lag_ms_p95"] = summarize(lags).P95
}

// traceOverhead compares traced and untraced requests of one run. The
// closed loop alternates untraced and traced slices of traceSlice, equally
// long, and compares their throughput; the open loop's throughput is fixed
// by the schedule, so it compares the median latency of traced (odd) and
// untraced (even) arrivals instead.
func traceOverhead(cfg workloadCfg, samples []sample) float64 {
	var tr, un []float64
	nTr, nUn := 0, 0
	for _, s := range samples {
		if !s.OK {
			continue
		}
		if s.Traced {
			nTr++
			tr = append(tr, s.LatencyMs)
		} else {
			nUn++
			un = append(un, s.LatencyMs)
		}
	}
	if nTr == 0 || nUn == 0 {
		return 0
	}
	if cfg.open() {
		return summarize(tr).P50/summarize(un).P50 - 1
	}
	return 1 - float64(nTr)/float64(nUn)
}

// telemetryOverhead alternates short closed-loop segments between the
// instrumented endpoint and a twin built with no telemetry at all, and
// returns the share of throughput the telemetry costs.
func telemetryOverhead(cfg workloadCfg, seed uint64, p *pool, inst *endpoint, segment time.Duration) (float64, error) {
	bare := cfg
	bare.Telemetry, bare.Instrumented = false, false
	off, err := setupServe(bare, seed, p)
	if err != nil {
		return 0, err
	}
	defer off.close()
	var on, offN int
	for i := 0; i < 4; i++ {
		on += countOK(closedLoop(inst.url, p, cfg.Conns, seed+uint64(i), segment, nil, nil))
		offN += countOK(closedLoop(off.url, p, cfg.Conns, seed+uint64(i), segment, nil, nil))
	}
	if offN == 0 {
		return 0, fmt.Errorf("telemetry-off segment answered nothing")
	}
	return 1 - float64(on)/float64(offN), nil
}

func countOK(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.OK {
			n++
		}
	}
	return n
}
