// spg-serve runs a trained network as an inference service: a forward-only
// model replicated across batch workers (one weight set in memory), an
// HTTP endpoint feeding a dynamic-batching admission queue, and the
// metrics/trace stack wired into the serving path. The deployed strategy
// and layout per batch-size bucket come from the planner, exactly like
// training — serving is a consumer of the same plan cache.
//
// Usage:
//
//	spg-train -net mnist -epochs 3 -save mnist.ckpt
//	spg-serve -net mnist -load mnist.ckpt -addr :8080 -max-batch 8 -max-delay 2ms
//	spg-load  -url http://127.0.0.1:8080 -c 8 -n 1000
//
// Endpoints: POST /v1/infer, GET /v1/spec, GET /metrics, /healthz,
// /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"spgcnn"
)

// HTTP timeouts of the inference endpoint: the metrics server's header
// budget, then the whole request, then an idle keep-alive connection.
const (
	readHeaderTimeout = spgcnn.ReadHeaderTimeout
	readTimeout       = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

// Test seams: serveReadyHook fires once the listener is bound (with the
// concrete address); stopCh, when non-nil, shuts the server down as a
// signal would.
var (
	serveReadyHook func(addr string)
	stopCh         chan struct{}
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "spg-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spg-serve", flag.ContinueOnError)
	var (
		netName   = fs.String("net", "mnist", "built-in network: mnist, cifar, imagenet100")
		file      = fs.String("file", "", "netdef file (overrides -net)")
		loadPath  = fs.String("load", "", "weight checkpoint to serve (spg-train -save); omit to serve seeded random weights")
		addr      = fs.String("addr", "127.0.0.1:0", "listen address")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening (port discovery for scripts)")
		replicas  = fs.Int("replicas", 1, "batch-worker replicas sharing one weight set")
		threads   = fs.Int("threads", 1, "worker cores per replica (intra-batch parallelism)")
		maxBatch  = fs.Int("max-batch", 8, "max requests coalesced into one forward pass")
		maxDelay  = fs.Duration("max-delay", 2*time.Millisecond, "how long a partial batch waits for late arrivals (0 = greedy)")
		queueCap  = fs.Int("queue-cap", 0, "admission queue bound; overflow rejects with 503 (0 = 8 x max-batch)")
		strategy  = fs.String("strategy", "auto", "conv strategy: auto (planner, per-bucket) or a fixed FP strategy name")
		seed      = fs.Uint64("seed", 42, "weight init seed (only meaningful without -load)")
		warmup    = fs.Bool("warmup", true, "plan and run every batch bucket on every replica before accepting traffic")
		planCache = fs.String("plan-cache", "", "persistent plan cache file: reuse per-bucket strategy verdicts across restarts")
		tracePath = fs.String("trace", "", "write a Perfetto trace of the serving run here on shutdown")
		traceMode = fs.String("trace-mode", "ring", "trace capture mode: ring or full")
		drift     = fs.Bool("drift", false, "run the plan-drift observatory over the serving spans and render the agreement report on shutdown (predictions assume full -max-batch batches; partial buckets read as faster than predicted)")
		driftOut  = fs.String("drift-report", "", "write the agreement report (schema-versioned JSON) here on shutdown; implies -drift")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := builtin(*netName)
	if src == "" && *file == "" {
		return fmt.Errorf("unknown built-in network %q (want mnist, cifar, imagenet100)", *netName)
	}
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		src = string(b)
	}
	def, err := spgcnn.ParseNet(src)
	if err != nil {
		return err
	}

	// One planner shared by every replica: replica 0 measures a bucket
	// once, the rest deploy the cached verdict.
	planner := spgcnn.NewPlanner(spgcnn.PlannerOptions{})
	if *planCache != "" {
		n, err := planner.LoadFile(*planCache)
		if err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		if n > 0 {
			fmt.Fprintf(stdout, "plan cache: loaded %d entries from %s\n", n, *planCache)
		}
	}

	mcfg := spgcnn.ServeModelConfig{
		Replicas: *replicas,
		Threads:  *threads,
		Buckets:  spgcnn.DefaultServeBuckets(*maxBatch),
		Planner:  planner,
		Seed:     *seed,
	}
	if *strategy != "auto" {
		st, ok := findFPStrategy(*strategy, *threads)
		if !ok {
			return fmt.Errorf("unknown strategy %q", *strategy)
		}
		mcfg.FixedStrategy = &st
	}
	model, err := spgcnn.NewServeModel(def, mcfg)
	if err != nil {
		return err
	}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		err = model.LoadWeights(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("restoring %s: %w", *loadPath, err)
		}
		fmt.Fprintf(stdout, "restored checkpoint %s\n", *loadPath)
	} else {
		fmt.Fprintf(stdout, "serving seeded random weights (no -load)\n")
	}

	reg := spgcnn.NewMetricsRegistry()
	// One replica's context feeds the kernel-span tree and arena gauges;
	// the serve-level series (queue, batches, goodput) cover all replicas.
	spgcnn.BindMetrics(model.Ctx(0), reg)
	spgcnn.BindRuntimeMetrics(reg)
	spgcnn.BindPlannerMetrics(planner, reg)

	// The drift observatory in serving is report-only: per-bucket verdicts
	// re-measure cheaply on restart, so a drift invalidates nothing; the
	// value is the live agreement series and the shutdown report.
	var obsv *spgcnn.Observatory
	if *drift || *driftOut != "" {
		obsv = spgcnn.NewObservatory(spgcnn.ObservatoryOptions{
			Workers: *threads,
			Metrics: reg,
		})
		for _, c := range model.ConvLayers() {
			obsv.RegisterLayer(c.Name(), c.Spec())
		}
		obsv.SetBatch(*maxBatch)
		for i := 0; i < model.Replicas(); i++ {
			model.Ctx(i).Probe().AddSink(obsv)
		}
	}

	var rec *spgcnn.TraceRecorder
	if *tracePath != "" {
		mode, err := spgcnn.ParseTraceMode(*traceMode)
		if err != nil {
			return err
		}
		rec = spgcnn.NewTraceRecorder(spgcnn.TraceOptions{Mode: mode})
		spgcnn.BindTraceMetrics(rec, reg)
		for i := 0; i < model.Replicas(); i++ {
			spgcnn.AttachTraceCtx(rec, model.Ctx(i), i)
		}
		planner.SetTrace(rec.Emitter(-1, 0))
	}

	if *warmup {
		t0 := time.Now()
		model.Warmup()
		fmt.Fprintf(stdout, "warmup: %d replicas x %v buckets planned in %v\n",
			model.Replicas(), model.Buckets(), time.Since(t0).Round(time.Millisecond))
	}

	srv, err := spgcnn.NewServer(spgcnn.ServeConfig{
		Model:    model,
		MaxBatch: *maxBatch,
		MaxDelay: *maxDelay,
		QueueCap: *queueCap,
		Metrics:  reg,
		Trace:    rec,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintf(stdout, "serving %q on http://%s (replicas %d, max batch %d, max delay %v)\n",
		def.Name, bound, model.Replicas(), *maxBatch, *maxDelay)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	if serveReadyHook != nil {
		serveReadyHook(bound)
	}

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "signal %v: draining\n", s)
	case <-stopCh:
		fmt.Fprintf(stdout, "stop requested: draining\n")
	case err := <-errCh:
		srv.Close()
		return err
	}

	// Shutdown order: stop accepting (listener), drain the admission
	// queue (server close answers every admitted request), then report.
	httpSrv.Close()
	srv.Close()

	st := srv.Stats()
	fmt.Fprintf(stdout, "served %d requests in %d batches (mean batch %.2f), rejected %d, failed %d\n",
		st.Requests, st.Batches, st.MeanBatch(), st.Rejected, st.Failed)
	if st.Images > 0 {
		fmt.Fprintf(stdout, "goodput: %.1f%% of forward flops were real requests (%d padding rows)\n",
			100*st.GoodputRatio(), st.PaddingRows)
	}
	// Planner epilogue: what the scheduler deployed and how often the
	// cache answered for free — the serving counterpart of spg-train's
	// plan-cache summary.
	if pst := planner.Stats(); pst.Hits+pst.Misses > 0 {
		fmt.Fprintf(stdout, "plan cache: %d hits, %d misses, %d measurement passes",
			pst.Hits, pst.Misses, pst.Measurements)
		if pst.Invalidations > 0 {
			fmt.Fprintf(stdout, ", %d invalidated by re-tune triggers", pst.Invalidations)
		}
		fmt.Fprintln(stdout)
	}
	for _, c := range model.ConvLayers() {
		buckets := c.PlannedBuckets()
		if len(buckets) == 0 {
			continue
		}
		bks := make([]int, 0, len(buckets))
		for bk := range buckets {
			bks = append(bks, bk)
		}
		sort.Ints(bks)
		fmt.Fprintf(stdout, "deployed %s:", c.Name())
		for _, bk := range bks {
			fmt.Fprintf(stdout, " batch%d=%s", bk, buckets[bk])
		}
		fmt.Fprintln(stdout)
	}
	if obsv != nil {
		fmt.Fprintf(stdout, "drift: %d events\n", len(obsv.Events()))
		rep := obsv.Report()
		rep.Render(stdout)
		if *driftOut != "" {
			if err := rep.WriteFile(*driftOut); err != nil {
				return fmt.Errorf("drift report: %w", err)
			}
			fmt.Fprintf(stdout, "drift report: wrote %s (schema %d)\n", *driftOut, spgcnn.DriftReportSchemaVersion)
		}
	}
	if rec != nil {
		if err := rec.WriteFile(*tracePath); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		ts := rec.Stats()
		fmt.Fprintf(stdout, "trace: wrote %d events to %s\n", ts.Buffered, *tracePath)
	}
	if *planCache != "" {
		if err := planner.SaveFile(*planCache); err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		fmt.Fprintf(stdout, "plan cache: saved %d entries to %s\n", planner.Entries(), *planCache)
	}
	return nil
}

func builtin(name string) string {
	switch name {
	case "mnist":
		return spgcnn.MNISTNet
	case "cifar":
		return spgcnn.CIFARNet
	case "imagenet100":
		return spgcnn.ImageNet100Net
	default:
		return ""
	}
}

// findFPStrategy resolves a forward-pass strategy by name — serving never
// runs backward, so only the FP set is searched.
func findFPStrategy(name string, workers int) (spgcnn.Strategy, bool) {
	if workers < 1 {
		workers = 1
	}
	for _, st := range spgcnn.FPStrategies(workers) {
		if st.Name == name {
			return st, true
		}
	}
	return spgcnn.Strategy{}, false
}
