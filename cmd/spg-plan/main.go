// spg-plan characterizes a convolution: its arithmetic intensity, the AIT
// lost to unfolding, its Fig. 1 region, the stencil generator's register
// tile, the planner's analytical strategy ranking, and — with -tune — what
// the spg-CNN planner measures, picks and caches for it on this host. The
// paper's §3 analysis plus the §4.4 scheduler as a command.
//
// Usage:
//
//	spg-plan -n 36 -nf 64 -nc 3 -f 5 -s 1
//	spg-plan -n 64 -nf 16 -nc 16 -f 11 -s 1 -sparsity 0.9 -tune
//	spg-plan -n 36 -nf 64 -nc 3 -f 5 -tune -plan-cache plans.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"spgcnn"
	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/explore"
	"spgcnn/internal/machine"
	"spgcnn/internal/netdef"
	"spgcnn/internal/plan"
	"spgcnn/internal/stencil"
	"spgcnn/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "spg-plan: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spg-plan", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 36, "input spatial size (Nx = Ny)")
		nf        = fs.Int("nf", 64, "output features")
		nc        = fs.Int("nc", 3, "input channels")
		f         = fs.Int("f", 5, "kernel size (Fx = Fy)")
		s         = fs.Int("s", 1, "stride")
		sparsity  = fs.Float64("sparsity", 0.85, "assumed BP error sparsity")
		wsparsity = fs.Float64("wsparsity", 0, "assumed FP weight sparsity (fraction of pruned weights)")
		tune      = fs.Bool("tune", false, "also run the planner's measurement pass on this host")
		workers   = fs.Int("workers", 0, "worker cores for the model ranking and -tune (0 = GOMAXPROCS)")
		planCache = fs.String("plan-cache", "", "plan cache file for -tune: deploy cached verdicts instead of re-measuring, save updated cache on exit")
		exploreAt = fs.String("explore", "", "whole-net design-space report: a built-in net name, 'all' for the workload zoo, or a netdef file path (ignores the per-conv flags)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *exploreAt != "" {
		return runExplore(stdout, *exploreAt, explore.Options{
			Workers: *workers, Sparsity: *sparsity, WSparsity: *wsparsity,
		})
	}

	spec := conv.Square(*n, *nf, *nc, *f, *s)
	if err := spec.Validate(); err != nil {
		return err
	}
	w := *workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}

	a := spgcnn.Analyze(spec)
	fmt.Fprintf(stdout, "convolution %s\n", spec)
	fmt.Fprintf(stdout, "  flops (FP)          %d\n", spec.FlopsFP())
	fmt.Fprintf(stdout, "  intrinsic AIT       %.1f\n", a.IntrinsicAIT)
	fmt.Fprintf(stdout, "  unfold+GEMM AIT     %.1f  (r = %.3f: unfolding keeps %.1f%% of the intensity)\n",
		a.UnfoldAIT, a.Ratio, a.Ratio*100)
	fmt.Fprintf(stdout, "  region (dense)      %v\n", a.DenseRegion)
	fmt.Fprintf(stdout, "  region (%.0f%% sparse) %v\n", *sparsity*100, spgcnn.Classify(spec, *sparsity))
	p := spgcnn.Classify(spec, *sparsity).Props()
	fmt.Fprintf(stdout, "  prescribed          %v\n", p.Recommendations)

	sp := stencil.ChoosePlan(spec)
	fmt.Fprintf(stdout, "stencil plan          %v\n", sp)

	m := machine.Paper()
	fmt.Fprintf(stdout, "modeled on the paper's 16-core Xeon (GFlops/core at p=16):\n")
	fmt.Fprintf(stdout, "  Parallel-GEMM (FP)  %.1f\n", m.ParallelGEMM(spec, ait.FP, 16))
	fmt.Fprintf(stdout, "  GEMM-in-Parallel    %.1f\n", m.GEMMInParallel(spec, ait.FP, 16))
	fmt.Fprintf(stdout, "  Stencil-Kernel      %.1f\n", m.Stencil(spec, 16))
	fmt.Fprintf(stdout, "  Sparse BP goodput   %.1f (at %.0f%% sparsity)\n",
		m.SparseGoodput(spec, *sparsity, 16), *sparsity*100)

	// The planner's model-first pass: every candidate ranked on one
	// dense-equivalent axis, with the prune verdicts the planner would
	// apply before measuring.
	fmt.Fprintf(stdout, "planner model ranking (dense-equivalent GFlops/core at p=%d):\n", w)
	fmt.Fprintf(stdout, "  fp keyed on weight band %d (%.0f%% weight sparsity), bp on gradient band %d (%.0f%% error sparsity)\n",
		ait.Band(*wsparsity), *wsparsity*100, ait.Band(*sparsity), *sparsity*100)
	printModelRank(stdout, "fp", w, modelRanking(m, spec, "fp", *wsparsity, w))
	printModelRank(stdout, "bp", w, modelRanking(m, spec, "bp", *sparsity, w))

	if !*tune {
		return nil
	}

	planner := spgcnn.NewPlanner(spgcnn.PlannerOptions{})
	if *planCache != "" {
		loaded, err := planner.LoadFile(*planCache)
		if err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		fmt.Fprintf(stdout, "plan cache: loaded %d entries from %s\n", loaded, *planCache)
	}

	fmt.Fprintf(stdout, "measured on this host (%d workers):\n", w)
	ctx := spgcnn.NewCtx(w)
	r := spgcnn.NewRNG(1)
	var ins, eos []*spgcnn.Tensor
	for i := 0; i < w; i++ {
		ins = append(ins, conv.RandInput(r, spec))
		eos = append(eos, conv.RandOutputError(r, spec, *sparsity))
	}
	wts := conv.RandWeights(r, spec)
	if *wsparsity > 0 {
		wts.Sparsify(r, *wsparsity)
		wts.Bump()
	}
	fpPlan := planner.PlanFP(spec, ctx, ins, wts, core.TuneOptions{})
	printMeasured(stdout, "FP", fpPlan, ait.Band(wts.Sparsity()))
	bpPlan := planner.PlanBP(spec, ctx, eos, ins, wts, core.TuneOptions{})
	printMeasured(stdout, "BP", bpPlan, ait.Band(*sparsity))

	pst := planner.Stats()
	fmt.Fprintf(stdout, "planner: %d hits, %d misses, %d measurement passes, %d candidates model-pruned\n",
		pst.Hits, pst.Misses, pst.Measurements, pst.Pruned)
	if *planCache != "" {
		if err := planner.SaveFile(*planCache); err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		fmt.Fprintf(stdout, "plan cache: saved %d entries to %s\n", planner.Entries(), *planCache)
	}
	return nil
}

// modelRanking runs the planner's model pass over the built-in candidate
// set for one phase, marking the prune verdicts the planner would apply.
func modelRanking(m machine.Machine, spec conv.Spec, phase string, sparsity float64, w int) []plan.ModelScore {
	var cands []core.Strategy
	if phase == "fp" {
		cands = core.FPStrategies(w)
	} else {
		cands = core.BPStrategies(w)
	}
	names := make([]string, len(cands))
	for i, st := range cands {
		names[i] = st.Name
	}
	scores := plan.ModelRank(m, spec, phase, sparsity, w, names)
	plan.MarkPruned(cands, scores, spec, sparsity)
	return scores
}

func printModelRank(stdout io.Writer, phase string, w int, scores []plan.ModelScore) {
	for i, sc := range scores {
		head := "  "
		if i == 0 {
			head = phase
		}
		note := ""
		if !sc.Modeled {
			note = "  (unmodeled)"
		} else if sc.Pruned {
			note = "  (pruned before measurement)"
		}
		fmt.Fprintf(stdout, "  %-3s %d. %-18s %-6s %8.1f%s\n",
			head, i+1, sc.Strategy, strategyLayout(sc.Strategy, w), sc.GFlopsPerCore, note)
	}
}

// strategyLayout reports the compute layout a built-in strategy runs in —
// the column spg-plan prints next to each candidate so a blocked pick is
// visible as a layout change, not just a name.
func strategyLayout(name string, w int) tensor.Layout {
	if st, ok := core.StrategyByName(name, w); ok {
		return st.Layout
	}
	return tensor.NCHW
}

// runExplore renders the per-layer design-space report for one or more
// whole networks: 'all' walks the workload zoo, a known name picks one
// built-in description, anything else is read as a netdef file.
func runExplore(stdout io.Writer, target string, opts explore.Options) error {
	var nets []netdef.ZooNet
	if target == "all" {
		nets = netdef.Zoo()
	} else if src, ok := builtinNet(target); ok {
		nets = []netdef.ZooNet{{Name: target, Src: src}}
	} else {
		b, err := os.ReadFile(target)
		if err != nil {
			return fmt.Errorf("explore: %q is neither a built-in net nor a readable netdef file: %w", target, err)
		}
		nets = []netdef.ZooNet{{Name: target, Src: string(b)}}
	}
	for i, zn := range nets {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		def, err := netdef.Parse(zn.Src)
		if err != nil {
			return err
		}
		if err := explore.Report(stdout, def, opts); err != nil {
			return err
		}
	}
	return nil
}

// builtinNet resolves a name onto one of the compiled-in descriptions.
func builtinNet(name string) (string, bool) {
	switch name {
	case "mnist":
		return netdef.MNISTNet, true
	case "cifar10":
		return netdef.CIFARNet, true
	case "imagenet100":
		return netdef.ImageNet100Net, true
	}
	for _, z := range netdef.Zoo() {
		if z.Name == name {
			return z.Src, true
		}
	}
	return "", false
}

func printMeasured(stdout io.Writer, phase string, pd core.Planned, band int) {
	for _, tm := range pd.Timings {
		fmt.Fprintf(stdout, "  %s %-18s %8.3f ms\n", phase, tm.Strategy.Name, tm.Seconds*1e3)
	}
	provenance := "measured now"
	if pd.FromCache {
		provenance = "deployed from plan cache, no measurement"
	}
	best := pd.Best().Strategy
	fmt.Fprintf(stdout, "  %s chosen: %s (layout %s, band %d, %s)\n",
		phase, best.Name, best.Layout, band, provenance)
}
