// spg-train trains a CNN described by a netdef file (or a built-in
// benchmark network) on a synthetic dataset, reporting per-epoch loss,
// accuracy, throughput and error-gradient sparsity — a command-line
// driver for the whole training stack.
//
// Usage:
//
//	spg-train -net cifar -epochs 5 -examples 512
//	spg-train -file mynet.prototxt -dataset mnist -strategy stencil
//	spg-train -net mnist -strategy auto       # spg-CNN scheduler (default)
//	spg-train -net mnist -metrics-addr :8080  # live /metrics + pprof
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"spgcnn"
)

// Test seams: invoked (when non-nil) once the metrics endpoint is
// listening and after every recorded epoch, so an integration test can
// scrape the live endpoint at a deterministic mid-training moment; ctxHook
// gets the run's execution context before anything is timed, so a test can
// install a scripted clock on its probe.
var (
	metricsUpHook func(addr string)
	epochHook     func(epoch int)
	ctxHook       func(*spgcnn.Ctx)
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "spg-train: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spg-train", flag.ContinueOnError)
	var (
		netName     = fs.String("net", "cifar", "built-in network: mnist, cifar, imagenet100")
		file        = fs.String("file", "", "netdef file (overrides -net)")
		dataset     = fs.String("dataset", "", "dataset: mnist, cifar, imagenet100 (default: matches -net)")
		epochs      = fs.Int("epochs", 3, "training epochs")
		examples    = fs.Int("examples", 256, "dataset size")
		batch       = fs.Int("batch", 16, "minibatch size")
		lr          = fs.Float64("lr", 0.01, "learning rate")
		workers     = fs.Int("workers", 0, "worker cores (0 = GOMAXPROCS)")
		strategy    = fs.String("strategy", "auto", "conv strategy: auto, "+strings.Join(strategyNames(), ", "))
		seed        = fs.Uint64("seed", 42, "random seed")
		savePath    = fs.String("save", "", "write a weight checkpoint here after training")
		loadPath    = fs.String("load", "", "restore a weight checkpoint before training")
		planCache   = fs.String("plan-cache", "", "persistent plan cache file: load cached strategy verdicts on start (skipping their measurement passes), save the updated cache on exit")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus), /healthz and /debug/pprof on this address during training (e.g. :8080)")
		replicas    = fs.Int("replicas", 1, "data-parallel model replicas; N > 1 shards each global batch of -batch across N replicas and averages their parameters through the ring after every step")
		tracePath   = fs.String("trace", "", "write a Chrome/Perfetto trace-event JSON capture of the run here (open in ui.perfetto.dev, analyze with spg-trace)")
		traceMode   = fs.String("trace-mode", "ring", "trace capture mode: ring (bounded flight recorder, keeps the newest events) or full (everything up to a cap)")
		drift       = fs.Bool("drift", false, "run the plan-drift observatory: track model-vs-measured agreement per layer and re-tune automatically when a deployed strategy drifts")
		driftReport = fs.String("drift-report", "", "write the observatory's agreement report (schema-versioned JSON, render with spg-doctor) here after training; implies -drift")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	src, defaultData := builtin(*netName)
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
	if *dataset == "" {
		*dataset = defaultData
	}

	def, err := spgcnn.ParseNet(src)
	if err != nil {
		return err
	}
	w := *workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	// One execution context for the whole network: every layer draws
	// scratch from the same arena and reports into the same probe.
	ctx := spgcnn.NewCtx(w)
	if ctxHook != nil {
		ctxHook(ctx)
	}

	// The metrics endpoint comes up before training starts, so a scrape at
	// any point during the run sees live per-layer spans and the goodput
	// series as they accumulate.
	var reg *spgcnn.MetricsRegistry
	if *metricsAddr != "" {
		reg = spgcnn.NewMetricsRegistry()
		spgcnn.BindMetrics(ctx, reg)
		spgcnn.BindRuntimeMetrics(reg)
		srv, err := spgcnn.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics endpoint %s\n", srv.URL())
		if metricsUpHook != nil {
			metricsUpHook(srv.Addr())
		}
	}

	// One planner for the whole run: same-geometry layers tune once, and
	// with -plan-cache the verdicts persist across processes on this host.
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
	if reg != nil {
		spgcnn.BindPlannerMetrics(planner, reg)
	}

	// The trace recorder, when requested, captures the whole run: layer and
	// kernel spans, planner activity, arena growth, and (with -replicas)
	// per-replica steps and all-reduce barriers.
	var rec *spgcnn.TraceRecorder
	if *tracePath != "" {
		mode, err := spgcnn.ParseTraceMode(*traceMode)
		if err != nil {
			return err
		}
		rec = spgcnn.NewTraceRecorder(spgcnn.TraceOptions{Mode: mode})
		if reg != nil {
			spgcnn.BindTraceMetrics(rec, reg)
		}
	}

	// The drift observatory rides the same probe seam as the metrics
	// registry and tracer; a drift invalidates the shared planner's verdicts,
	// and every layer that deployed one re-plans on its next call.
	var obsv *spgcnn.Observatory
	if *drift || *driftReport != "" {
		oo := spgcnn.ObservatoryOptions{
			Workers: w,
			OnDrift: func(ev spgcnn.DriftEvent) { planner.InvalidateSpec(ev.Spec, ev.Phase) },
			Metrics: reg,
		}
		if rec != nil {
			oo.Trace = rec.Emitter(-1, 0)
		}
		obsv = spgcnn.NewObservatory(oo)
	}

	opts := spgcnn.BuildOptions{Ctx: ctx, Seed: *seed, Planner: planner}
	if *strategy != "auto" {
		st, ok := spgcnn.StrategyByName(*strategy, w)
		if !ok {
			return fmt.Errorf("unknown strategy %q (want auto, %s)", *strategy, strings.Join(strategyNames(), ", "))
		}
		opts.FixedStrategy = &st
	}
	ds := datasetByName(*dataset, *examples)
	if ds == nil {
		return fmt.Errorf("unknown dataset %q", *dataset)
	}

	cfg := spgcnn.DataParallelConfig{Replicas: *replicas, LR: float32(*lr), GlobalBatch: *batch, SyncEvery: 1}

	fmt.Fprintf(stdout, "network %q, dataset %s (%d examples), strategy %s\n",
		def.Name, *dataset, *examples, *strategy)
	// One trainer for any -replicas: N model replicas share the planner,
	// each global batch of -batch images shards across them and parameters
	// average after every step; one replica is the plain SGD trainer run
	// inline. Replica 0 — canonical after the final sync — is the model the
	// epilogue checkpoints.
	dp, err := spgcnn.NewDataParallelFromDef(def, opts, cfg)
	if err != nil {
		return err
	}
	net := dp.Replica(0)
	if *loadPath != "" {
		ckpt, err := os.ReadFile(*loadPath)
		if err != nil {
			return err
		}
		for i := 0; i < *replicas; i++ {
			if err := dp.Replica(i).Load(bytes.NewReader(ckpt)); err != nil {
				return fmt.Errorf("restoring %s: %w", *loadPath, err)
			}
		}
		fmt.Fprintf(stdout, "restored checkpoint %s\n", *loadPath)
	}
	dp.BindTrace(rec) // no-op when tracing is off
	if obsv != nil {
		// Replicas share one observatory stream per layer (symmetric
		// shards, shared planner).
		spgcnn.RegisterObservatoryLayers(obsv, net)
		obsv.SetBatch(*batch / *replicas)
		dp.AddSink(obsv)
	}
	if *replicas > 1 {
		fmt.Fprintf(stdout, "data-parallel: %d replicas, global batch %d (shard %d), ring allreduce\n",
			*replicas, *batch, *batch / *replicas)
	}

	r := spgcnn.NewRNG(*seed)
	agg := make([]spgcnn.DataParallelReplicaStats, *replicas)
	for e := 0; e < *epochs; e++ {
		stats := dp.TrainEpoch(ds, r)
		if obsv != nil {
			for name, s := range stats.ConvSparsity {
				obsv.SetSparsity(name, -1, s)
			}
		}
		if reg != nil {
			reg.RecordEpoch(stats.EpochStats)
			if *replicas > 1 {
				reg.RecordDataParallel(stats)
			}
		}
		printEpoch(stdout, net, stats)
		for i, rs := range stats.Replicas {
			agg[i].Replica = rs.Replica
			agg[i].Steps += rs.Steps
			agg[i].Total += rs.Total
			agg[i].BarrierWait += rs.BarrierWait
			agg[i].Max = max(agg[i].Max, rs.Max)
			if e == 0 || rs.Min < agg[i].Min {
				agg[i].Min = rs.Min
			}
		}
		if epochHook != nil {
			epochHook(e)
		}
	}
	if *replicas > 1 {
		fmt.Fprintln(stdout, "replica  steps  step min/mean/max (ms)  barrier wait (ms)")
		for _, rs := range agg {
			fmt.Fprintf(stdout, "%7d  %5d  %7.2f /%7.2f /%7.2f  %17.2f\n",
				rs.Replica, rs.Steps, rs.Min*1e3, rs.Mean()*1e3, rs.Max*1e3, rs.BarrierWait*1e3)
		}
	}
	if rec != nil {
		if err := rec.WriteFile(*tracePath); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		ts := rec.Stats()
		fmt.Fprintf(stdout, "trace: wrote %d events to %s (mode %s, %d emitted, %d overwritten, %d dropped)\n",
			ts.Buffered, *tracePath, *traceMode, ts.Emitted, ts.Overwritten, ts.Dropped)
	}
	st := ctx.Arena().Stats()
	if st.Gets > 0 {
		fmt.Fprintf(stdout, "arena: %d scratch acquisitions, %.1f%% served from free lists, %d outstanding\n",
			st.Gets, 100*float64(st.Hits)/float64(st.Gets), st.Outstanding)
	}
	if choices := ctx.Probe().Choices(); len(choices) > 0 {
		fmt.Fprintf(stdout, "scheduler deployments:")
		for _, c := range choices {
			fmt.Fprintf(stdout, " %s=%s", c.Phase, c.Strategy)
		}
		fmt.Fprintln(stdout)
	}
	if pst := planner.Stats(); pst.Hits+pst.Misses > 0 {
		fmt.Fprintf(stdout, "plan cache: %d hits, %d misses, %d measurement passes",
			pst.Hits, pst.Misses, pst.Measurements)
		if pst.Pruned > 0 {
			fmt.Fprintf(stdout, ", %d candidates model-pruned", pst.Pruned)
		}
		if pst.ModelAgree+pst.ModelDisagree > 0 {
			fmt.Fprintf(stdout, ", model agreement %.0f%%", 100*pst.AgreementRate())
		}
		fmt.Fprintln(stdout)
	}
	if obsv != nil {
		evs := obsv.Events()
		fmt.Fprintf(stdout, "drift: %d events, %d plan entries invalidated\n",
			len(evs), planner.Stats().Invalidations)
		for _, ev := range evs {
			fmt.Fprintf(stdout, "  %s\n", ev)
		}
		if *driftReport != "" {
			rep := obsv.Report()
			rep.Render(stdout)
			if err := rep.WriteFile(*driftReport); err != nil {
				return fmt.Errorf("drift report: %w", err)
			}
			fmt.Fprintf(stdout, "drift report: wrote %s (schema %d)\n", *driftReport, spgcnn.DriftReportSchemaVersion)
		}
	}
	if *planCache != "" {
		if err := planner.SaveFile(*planCache); err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		fmt.Fprintf(stdout, "plan cache: saved %d entries to %s\n", planner.Entries(), *planCache)
	}
	if *savePath != "" {
		if err := spgcnn.WriteFileAtomic(*savePath, net.Save); err != nil {
			return fmt.Errorf("saving %s: %w", *savePath, err)
		}
		fmt.Fprintf(stdout, "saved checkpoint %s\n", *savePath)
	}
	return nil
}

// printEpoch prints one epoch: the line every run gets, and under it the
// sync account of a fleet.
func printEpoch(stdout io.Writer, net *spgcnn.Network, stats spgcnn.DataParallelStats) {
	fmt.Fprintf(stdout, "epoch %2d  loss %.4f  acc %5.1f%%  %7.1f images/sec  conv %.2f GF (goodput %.2f)",
		stats.Epoch, stats.Loss, stats.Accuracy*100, stats.ImagesPerSec,
		stats.ConvGFlops, stats.ConvGoodputGFlops)
	if len(stats.ConvSparsity) > 0 {
		fmt.Fprintf(stdout, "  EO sparsity:")
		for _, c := range net.ConvLayers() {
			if s, ok := stats.ConvSparsity[c.Name()]; ok {
				fmt.Fprintf(stdout, " %s=%.2f", c.Name(), s)
			}
		}
	}
	if len(stats.Replicas) > 1 {
		fmt.Fprintf(stdout, "  %d syncs", stats.Syncs)
	}
	fmt.Fprintln(stdout)
	if stats.Syncs == 0 {
		return
	}
	line := fmt.Sprintf("          sync ring  %.2fms total", stats.AllReduceSeconds*1e3)
	if stats.SkippedImages > 0 {
		line += fmt.Sprintf("  skipped %d images", stats.SkippedImages)
	}
	fmt.Fprintln(stdout, line)
}

func builtin(name string) (src, dataset string) {
	switch name {
	case "mnist":
		return spgcnn.MNISTNet, "mnist"
	case "cifar":
		return spgcnn.CIFARNet, "cifar"
	case "imagenet100":
		return spgcnn.ImageNet100Net, "imagenet100"
	default:
		return "", ""
	}
}

func datasetByName(name string, n int) spgcnn.Dataset {
	switch name {
	case "mnist":
		return spgcnn.MNISTData(n)
	case "cifar":
		return spgcnn.CIFARData(n)
	case "imagenet100":
		return spgcnn.ImageNet100Data(n)
	default:
		return nil
	}
}

// strategyNames lists the candidate sets' strategy names, FP first, each
// once — what -strategy accepts besides "auto".
func strategyNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, st := range append(spgcnn.FPStrategies(1), spgcnn.BPStrategies(1)...) {
		if !seen[st.Name] {
			seen[st.Name] = true
			names = append(names, st.Name)
		}
	}
	return names
}
