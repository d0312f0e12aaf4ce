package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// trainSet is one complete training set-up: every net of the workload built
// on one cold planner and warmed up.
type trainSet struct {
	seed    uint64
	rigs    []*trainRig
	buildMs float64 // Parse+Build of every net
	coldMs  float64 // first warm-up step minus the second, summed over nets
}

// setupTrain builds every net on a fresh planner and runs the two discarded
// warm-up steps: the first plans FP and BP for every conv layer, the second
// is steady.
func setupTrain(cfg workloadCfg, seed uint64) (*trainSet, error) {
	set := &trainSet{seed: seed}
	planner := newPlanner()
	for _, src := range cfg.Nets {
		rig, buildMs, err := buildTrain(src, cfg, seed, planner)
		if err != nil {
			return nil, err
		}
		set.buildMs += buildMs
		warm := timedEpoch(func(onStep func()) float64 { return rig.epoch(rig.warmSet(warmSteps), onStep) })
		set.coldMs += warm.steps[0] - warm.steps[1]
		set.rigs = append(set.rigs, rig)
	}
	return set, nil
}

// gate is the training correctness gate before a segment's window: every
// planned net against its reference twin on the fixed batch, and (traced)
// the harness's layer walk against Network.Forward, bit for bit.
func (s *trainSet) gate(cfg workloadCfg, traced bool) error {
	for i, rig := range s.rigs {
		if err := rig.buildTwin(cfg.Nets[i], s.seed); err != nil {
			return fmt.Errorf("oracle twin of %s: %w", rig.name, err)
		}
		if d := rig.gate(); !(d <= gateTol) {
			return fmt.Errorf("%s: planned logits differ from the reference strategy's by %g (limit %g)", rig.name, d, gateTol)
		}
		if traced && !rig.walkIdentical() {
			return fmt.Errorf("%s: the harness's layer walk is not bit-identical to Network.Forward", rig.name)
		}
	}
	return nil
}

// arena sums the nets' scratch-arena counters.
func (s *trainSet) arena() (gets, hits int64) {
	for _, rig := range s.rigs {
		g, h := arenaCounts(rig.ctx)
		gets, hits = gets+g, hits+h
	}
	return gets, hits
}

// deployed is the strategy every conv layer of the set runs right now.
func (s *trainSet) deployed() map[string]string {
	out := map[string]string{}
	for _, rig := range s.rigs {
		rig.deployed(out)
	}
	return out
}

// epochRun is one net's epoch as seen from outside.
type epochRun struct {
	steps []float64 // ms per step
	loss  float64
}

// timedEpoch times every step of one epoch from outside: run must call
// onStep before each minibatch. A step lasts from its onStep to the next
// one's, the last until run returns (so it includes the epoch-end hook).
func timedEpoch(run func(onStep func()) (loss float64)) epochRun {
	var stamps []time.Time
	loss := run(func() { stamps = append(stamps, time.Now()) })
	stamps = append(stamps, time.Now())
	e := epochRun{loss: loss}
	for i := 1; i < len(stamps); i++ {
		e.steps = append(e.steps, ms(stamps[i].Sub(stamps[i-1])))
	}
	return e
}

// trainTally accumulates what the ledger needs across a run's segments.
type trainTally struct {
	setupTally
	pass                         int
	tracedMs, untracedMs         float64
	tracedImages, untracedImages int
	tracedOps                    int
	gets, hits                   int64
	sparsity                     map[string][]float64 // "<net>:<layer>" -> EO sparsity per traced epoch
}

// runTrain runs one training workload. The window is split into
// cfg.Segments equal segments, each on a freshly built and cold-planned
// set-up (see README.md, Segments). A segment is a whole number of passes
// over the workload's nets, one epoch each in canonical order, and ends
// after the first pass that crosses its share of the window. An op is one
// step (single net) or one round: the j-th step of every net of the pass,
// summed, so the op distribution stays unimodal across nets of different
// cost. In a traced run every other pass is driven by the harness layer by
// layer, with spans.
func runTrain(cfg workloadCfg, seed uint64, seconds float64, traced bool, rec *recorder) (*outcome, error) {
	out := newOutcome()
	out.correct = true
	segment := time.Duration(seconds * float64(time.Second) / float64(cfg.Segments))
	t := &trainTally{sparsity: map[string][]float64{}}
	var set *trainSet
	for seg := 0; seg < cfg.Segments; seg++ {
		// Drop the previous segment's nets before building the next, so
		// memory holds one set-up, not however many the collector has
		// not got to yet.
		set = nil
		runtime.GC()
		start := time.Now()
		var err error
		if set, err = setupTrain(cfg, seed+uint64(seg)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if err := set.gate(cfg, traced); err != nil {
			return nil, err
		}
		trainSegment(cfg, set, segment, traced, rec, t, out)

		out.deploy(set.deployed())
		t.add(set.buildMs, set.coldMs, plannerCounters(set.rigs[0].planner))
	}
	out.rssMB = peakRSSMB()
	out.correct = out.correct && out.failed == 0 && out.attempted > 0
	if !traced {
		return out, nil
	}
	if t.tracedOps == 0 {
		return nil, fmt.Errorf("window of %gs too short for a traced pass", seconds)
	}
	trainLedger(cfg, set, t, rec, out)
	if err := trainProbes(cfg, set, out); err != nil {
		return nil, err
	}
	return out, nil
}

// trainSegment measures one segment on set and adds it to out and t.
func trainSegment(cfg workloadCfg, set *trainSet, segment time.Duration, traced bool, rec *recorder, t *trainTally, out *outcome) {
	firstLoss := make([]float64, len(set.rigs))
	lastLoss := make([]float64, len(set.rigs))
	var segOps []float64
	g0, h0 := set.arena()
	rt0 := readRuntime()
	imagesBefore := out.images
	passes := 0
	start := time.Now()
	for ; time.Since(start) < segment; passes++ {
		walk := traced && t.pass%2 == 1
		t.pass++
		runs := make([]epochRun, len(set.rigs))
		bad := false
		for i, rig := range set.rigs {
			if walk {
				runs[i] = timedEpoch(func(onStep func()) float64 {
					loss, sparsity := rig.walkEpoch(rec, func() int { onStep(); return rec.newOp() })
					for layer, s := range sparsity {
						t.sparsity[rig.name+":"+layer] = append(t.sparsity[rig.name+":"+layer], s)
					}
					return loss
				})
			} else {
				runs[i] = timedEpoch(func(onStep func()) float64 { return rig.epoch(rig.fullSet(), onStep) })
			}
			if passes == 0 {
				firstLoss[i] = runs[i].loss
			}
			lastLoss[i] = runs[i].loss
			if math.IsNaN(runs[i].loss) || math.IsInf(runs[i].loss, 0) {
				bad = true
			}
		}
		images := cfg.Batch * len(runs)
		for j := range runs[0].steps {
			round := 0.0
			for _, r := range runs {
				round += r.steps[j]
			}
			out.attempted++
			out.images += images
			if walk {
				t.tracedMs, t.tracedImages, t.tracedOps = t.tracedMs+round, t.tracedImages+images, t.tracedOps+1
			} else {
				t.untracedMs, t.untracedImages = t.untracedMs+round, t.untracedImages+images
			}
			if bad { // a non-finite epoch loss fails every op of that pass
				out.failed++
				continue
			}
			out.ops = append(out.ops, round)
			segOps = append(segOps, round)
			if round <= cfg.LimitMs {
				out.inLimit++
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	out.elapsed += elapsed
	out.segRate = append(out.segRate, float64(out.images-imagesBefore)/elapsed)
	out.segP50 = append(out.segP50, summarize(segOps).P50)
	out.runtime = out.runtime.plus(readRuntime().minus(rt0))
	out.liveMB = append(out.liveMB, liveHeapMB())
	g1, h1 := set.arena()
	t.gets, t.hits = t.gets+g1-g0, t.hits+h1-h0

	for i, rig := range set.rigs {
		if passes > 1 && !(lastLoss[i] < firstLoss[i]) {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("segment %d, %s: last epoch loss %g is not below the first %g",
				len(out.segP50)-1, rig.name, lastLoss[i], firstLoss[i]))
		}
	}
}

// trainLedger fills the ledger rows that come from the tally and the spans.
// Set-up and planner rows are the median over the run's segments; rows that
// depend on what was deployed use the last segment's set-up, which the probe
// block also runs on.
func trainLedger(cfg workloadCfg, set *trainSet, t *trainTally, rec *recorder, out *outcome) {
	L := out.ledger
	t.fill(L)
	if t.gets > 0 {
		L["tensor.arena_hit_share"] = float64(t.hits) / float64(t.gets)
	}
	L["bench.trace_overhead_share"] = 1 - (float64(t.tracedImages)/t.tracedMs)/(float64(t.untracedImages)/t.untracedMs)

	tot := totals(rec.spans)
	at := func(name string) spanTotal {
		if s := tot[name]; s != nil {
			return *s
		}
		return spanTotal{}
	}
	dur := func(name string) int64 { return at(name).Dur }
	durPrefix := func(prefix string) (sum int64) {
		for name, s := range tot {
			if strings.HasPrefix(name, prefix) {
				sum += s.Dur
			}
		}
		return sum
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(t.tracedOps) }
	L["data.fill_ms"] = perOp(dur("data.fill"))
	L["nn.fp_ms"] = perOp(dur("nn.fp"))
	L["nn.bp_ms"] = perOp(dur("nn.bp"))
	L["nn.apply_ms"] = perOp(dur("nn.apply"))
	L["nn.loss_ms"] = perOp(dur("nn.loss"))
	L["nn.conv_fp_ms"] = perOp(durPrefix("nn.fp/conv/"))
	L["nn.conv_bp_ms"] = perOp(durPrefix("nn.bp/conv/"))
	L["nn.glue_ms"] = perOp(durPrefix("nn.fp/glue/") + durPrefix("nn.bp/glue/"))
	L["nn.fc_ms"] = perOp(durPrefix("nn.fp/fc/") + durPrefix("nn.bp/fc/"))
	var stepDur, stepSelf int64
	for name, s := range tot {
		if net, ok := strings.CutPrefix(name, "step/"); ok {
			stepDur, stepSelf = stepDur+s.Dur, stepSelf+s.Self
			if len(set.rigs) > 1 {
				L["nn.step_ms."+net] = float64(s.Dur) / 1e6 / float64(s.Count)
			}
		}
	}
	L["nn.unattributed_share"] = float64(stepSelf) / float64(stepDur)

	// Conv work rates over the traced passes (Eq. 9: FP counted fully, BP
	// discounted by each layer's measured EO sparsity), goodput share under
	// the deployed BP strategies, and roofline fractions against the two
	// host probes of this same run.
	peak, stream := microProbes(L, cfg.Workers)
	deployed := set.deployed()
	imagesPerNet := float64(t.tracedImages) / float64(len(set.rigs))
	var dense, useful, executed, fpRoofS, bpRoofS, fpMeasS, bpMeasS float64
	fallbacks := 0
	for _, rig := range set.rigs {
		names, fp, bp, intensity := rig.convFlops()
		for i, layer := range names {
			s := mean(t.sparsity[rig.name+":"+layer])
			dense += fp[i] + bp[i]
			useful += fp[i] + bp[i]*(1-s)
			if deployed[rig.name+"/"+layer+"/bp"] == "sparse" {
				executed += fp[i] + bp[i]*(1-s)
			} else {
				executed += fp[i] + bp[i]
			}
			for _, phase := range []string{"fp", "bp"} {
				if deployed[rig.name+"/"+layer+"/"+phase] == referenceName() {
					fallbacks++
				}
			}
			// AIT is flops per element; elements are 4 bytes.
			roof := math.Min(peak*float64(cfg.Workers), stream*intensity[i]/4) * 1e9
			fpRoofS += imagesPerNet * fp[i] / roof
			bpRoofS += imagesPerNet * bp[i] / roof
			fpSpan, bpSpan := at("nn.fp/conv/"+rig.name+":"+layer), at("nn.bp/conv/"+rig.name+":"+layer)
			fpMeasS += float64(fpSpan.Dur) / 1e9
			bpMeasS += float64(bpSpan.Dur) / 1e9
			if len(set.rigs) == 1 {
				L["nn."+layer+".fp_ms"] = float64(fpSpan.Dur) / 1e6 / float64(fpSpan.Count)
				L["nn."+layer+".bp_ms"] = float64(bpSpan.Dur) / 1e6 / float64(bpSpan.Count)
				L["nn.eo_sparsity."+layer] = s
			}
		}
	}
	L["nn.dense_gflops"] = dense * imagesPerNet / (t.tracedMs / 1e3) / 1e9
	L["nn.goodput_gflops"] = useful * imagesPerNet / (t.tracedMs / 1e3) / 1e9
	L["core.goodput_share"] = useful / executed
	L["core.fallback_layers"] = float64(fallbacks)
	L["core.fp_roofline_frac"] = fpRoofS / fpMeasS
	L["core.bp_roofline_frac"] = bpRoofS / bpMeasS
}

// microProbes fills the gemm, unfold, sparse, tensor and machine rows, which
// every traced run measures, and returns the two host probes.
func microProbes(L map[string]float64, workers int) (peakGFlops, streamGBs float64) {
	for k, v := range gemmProbes(workers, 5) {
		L[k] = v
	}
	for k, v := range memoryProbes(5) {
		L[k] = v
	}
	peakGFlops, streamGBs = calibrate()
	L["machine.peak_gflops"], L["machine.stream_gbs"] = peakGFlops, streamGBs
	return peakGFlops, streamGBs
}

// sweepSpecs names the conv layers each training workload sweeps every
// candidate engine over: net, layer, and the label the ledger rows carry.
var sweepSpecs = map[string][][3]string{
	"train_cifar": {{"cifar10", "conv0", "cifar-conv0"}, {"cifar10", "conv1", "cifar-conv1"}},
	"train_zoo":   {{"zoo-depthwise", "dw1", "zoo-dw1"}, {"zoo-depthwise", "pw1", "zoo-pw1"}},
}

// trainProbes is the rest of a traced training run's probe block, on the
// last segment's set-up: the engine sweep on tensors captured from one more
// real step, a rebuild on the now-warm planner and (single-net workload) the
// data-parallel probe. Every timing is the fastest of a fixed number of
// repetitions.
func trainProbes(cfg workloadCfg, set *trainSet, out *outcome) error {
	L := out.ledger
	deployed := set.deployed()
	var regretNum, regretDen float64
	for _, sp := range sweepSpecs[cfg.Name] {
		net, layer, label := sp[0], sp[1], sp[2]
		c, err := set.capture(net, layer, cfg.Batch)
		if err != nil {
			return err
		}
		fp, bp := sweepEngines(c, cfg.Workers, 3, set.seed)
		for name, g := range fp {
			L["engine.fp."+name+"."+label+"_gflops"] = g
		}
		for name, g := range bp {
			L["engine.bp."+name+"."+label+"_gflops"] = g
		}
		// Regret of the deployed strategy against the best swept one, as
		// a time ratio, weighted by the phase's dense flops (BP is twice
		// FP).
		for phase, sweep := range map[string]map[string]float64{"fp": fp, "bp": bp} {
			got, ok := sweep[deployed[net+"/"+layer+"/"+phase]]
			if !ok {
				continue
			}
			best := 0.0
			for _, g := range sweep {
				best = math.Max(best, g)
			}
			w := float64(c.spec.FlopsFP())
			if phase == "bp" {
				w *= 2
			}
			regretNum += w * (best/got - 1)
			regretDen += w
		}
	}
	if regretDen > 0 {
		L["core.regret_share"] = regretNum / regretDen
	}

	// plan.warm_ms: build every net again on the now-warm planner and run
	// one step; every verdict deploys from the cache.
	start := time.Now()
	for _, src := range cfg.Nets {
		rig, _, err := buildTrain(src, cfg, set.seed, set.rigs[0].planner)
		if err != nil {
			return err
		}
		rig.epoch(rig.warmSet(1), func() {})
	}
	L["plan.warm_ms"] = ms(time.Since(start))

	if len(cfg.Nets) == 1 {
		dp, err := dataParallelProbe(cfg.Nets[0], cfg, set.seed, 2)
		if err != nil {
			return fmt.Errorf("data-parallel probe: %w", err)
		}
		L["dataparallel.sync_ms.ring"] = dp.SyncMs
		L["dataparallel.images_per_s_2r"] = dp.ImagesPerS
		L["dataparallel.barrier_wait_share"] = dp.BarrierWaitShare
	}
	return nil
}

// capture runs one more real step on the named net and returns the named
// conv layer's inputs and output-error gradients.
func (s *trainSet) capture(net, layer string, batch int) (*captured, error) {
	for _, rig := range s.rigs {
		if rig.name != net {
			continue
		}
		idx := make([]int, batch)
		for i := range idx {
			idx[i] = i
		}
		want := map[string]*captured{layer: {}}
		rig.prepareWalk()
		rig.walkStep(nil, 0, idx, want)
		if want[layer].ins != nil {
			return want[layer], nil
		}
	}
	return nil, fmt.Errorf("sweep: no conv layer %s in net %s", layer, net)
}
