package main

// adapter.go is the only file of the harness that imports program symbols;
// every other file is standard library only. It prefers the root facade
// (what cmd/spg-serve builds on) and reaches into spgcnn/internal/... only
// for what the facade lacks. README.md lists the symbols this file freezes.

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"spgcnn"
	"spgcnn/internal/core"
	"spgcnn/internal/data"
	"spgcnn/internal/gemm"
	"spgcnn/internal/machine"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/sparse"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfold"
)

// netSrc names one network description.
type netSrc struct{ Name, Src string }

func cifarSrc() netSrc { return netSrc{"cifar10", spgcnn.CIFARNet} }
func mnistSrc() netSrc { return netSrc{"mnist", spgcnn.MNISTNet} }

func zooSrcs() []netSrc {
	var out []netSrc
	for _, z := range netdef.Zoo() {
		out = append(out, netSrc{z.Name, z.Src})
	}
	return out
}

// hostInfo is the info block's host fingerprint.
func hostInfo() string { return spgcnn.HostInfo().Fingerprint() }

func newPlanner() *spgcnn.Planner { return spgcnn.NewPlanner(spgcnn.PlannerOptions{}) }

// planCounters are the Planner.Stats() fields the ledger reports.
type planCounters struct {
	Measurements, Pruned uint64
	Agreement            float64
}

func plannerCounters(p *spgcnn.Planner) planCounters {
	st := p.Stats()
	return planCounters{Measurements: st.Measurements, Pruned: st.Pruned, Agreement: st.AgreementRate()}
}

// ---- training ----

type layerKind int

const (
	kindGlue layerKind = iota // relu, pool, add, tap, dropout
	kindConv
	kindFC
)

// subset presents the first n examples of a dataset (the warm-up epoch).
type subset struct {
	*data.Synthetic
	n int
}

func (s subset) Len() int { return s.n }

// trainRig is one network under training plus everything the harness needs
// to drive it from outside: the trainer (untraced), its own walk buffers
// (traced), and a reference-strategy twin sharing the same weights (the
// correctness oracle).
type trainRig struct {
	name    string
	net     *spgcnn.Network
	twin    *spgcnn.Network
	trainer *spgcnn.Trainer
	planner *spgcnn.Planner
	ctx     *spgcnn.Ctx
	ds      *data.Synthetic
	rng     *spgcnn.RNG
	batch   int
	lr      float32

	layers []nn.Layer
	kinds  []layerKind
	convs  []*nn.Conv

	// walk state: the harness's own activations and gradients, with the
	// reshaped views each layer reads precomputed once.
	ins, dlogits []*spgcnn.Tensor
	acts, grads  [][]*spgcnn.Tensor
	inViews      [][]*spgcnn.Tensor // input of layer l
	eoViews      [][]*spgcnn.Tensor // output-error of layer l
	fixed        []*spgcnn.Tensor   // the gate's fixed batch
}

// buildTrain parses and builds one network for training on a seeded
// synthetic dataset shaped like its input. buildMs is Parse+Build only; no
// strategy is planned until the first batch runs.
func buildTrain(src netSrc, cfg workloadCfg, seed uint64, planner *spgcnn.Planner) (rig *trainRig, buildMs float64, err error) {
	start := time.Now()
	def, err := spgcnn.ParseNet(src.Src)
	if err != nil {
		return nil, 0, fmt.Errorf("parse %s: %w", src.Name, err)
	}
	ctx := spgcnn.NewCtx(cfg.Workers)
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Ctx: ctx, Planner: planner, Seed: seed})
	if err != nil {
		return nil, 0, fmt.Errorf("build %s: %w", src.Name, err)
	}
	buildMs = ms(time.Since(start))

	in := net.InDims()
	r := &trainRig{
		name: src.Name, net: net, planner: planner, ctx: ctx,
		trainer: spgcnn.NewTrainer(net, cfg.LR, cfg.Batch),
		ds: data.New(data.Config{
			Name: src.Name, Examples: cfg.Examples, Classes: net.OutDims()[0],
			Channels: in[0], Height: in[1], Width: in[2], Seed: seed,
		}),
		rng:    spgcnn.NewRNG(seed ^ 0x5eed),
		batch:  cfg.Batch,
		lr:     cfg.LR,
		layers: net.Layers(),
		convs:  net.ConvLayers(),
	}
	for _, l := range r.layers {
		switch l.(type) {
		case *nn.Conv:
			r.kinds = append(r.kinds, kindConv)
		case *nn.FC:
			r.kinds = append(r.kinds, kindFC)
		default:
			r.kinds = append(r.kinds, kindGlue)
		}
	}
	for i := 0; i < cfg.Batch; i++ {
		t := spgcnn.NewTensor(in...)
		r.ds.Image(i, t)
		r.fixed = append(r.fixed, t)
	}
	return r, buildMs, nil
}

// buildTwin builds the oracle: the same description with every convolution
// pinned to the reference strategy, aliasing the rig's parameters so the two
// can be compared at any point of training.
func (r *trainRig) buildTwin(src netSrc, seed uint64) error {
	def, err := spgcnn.ParseNet(src.Src)
	if err != nil {
		return err
	}
	ref := core.ReferenceStrategy()
	twin, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: r.ctx.Workers(), FixedStrategy: &ref, Seed: seed})
	if err != nil {
		return err
	}
	if err := twin.ShareParameters(r.net); err != nil {
		return err
	}
	r.twin = twin
	return nil
}

// epoch runs Trainer.TrainEpoch over ds and returns the epoch loss; onStep
// fires before every minibatch.
func (r *trainRig) epoch(ds spgcnn.Dataset, onStep func()) (loss float64) {
	r.trainer.OnStep = func(int64) { onStep() }
	return r.trainer.TrainEpoch(ds, r.rng).Loss
}

func (r *trainRig) fullSet() spgcnn.Dataset { return r.ds }

func (r *trainRig) warmSet(steps int) spgcnn.Dataset { return subset{r.ds, steps * r.batch} }

// gate compares the planned network's logits on the fixed batch with the
// reference twin's and returns the largest absolute difference.
func (r *trainRig) gate() float64 {
	want := cloneAll(r.twin.Forward(r.fixed))
	got := r.net.Forward(r.fixed)
	worst := 0.0
	for i := range got {
		if d := tensor.MaxAbsDiff(got[i], want[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

func cloneAll(ts []*spgcnn.Tensor) []*spgcnn.Tensor {
	out := make([]*spgcnn.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// deployed reports the strategy each conv layer currently runs, keyed
// "<net>/<layer>/fp" and "<net>/<layer>/bp".
func (r *trainRig) deployed(into map[string]string) {
	for _, c := range r.convs {
		fp, bp, ok := c.Selections()
		if !ok {
			continue
		}
		if fp.Chosen != nil {
			into[r.name+"/"+c.Name()+"/fp"] = fp.Chosen.Strategy().Name
		}
		if bp.Chosen != nil {
			into[r.name+"/"+c.Name()+"/bp"] = bp.Chosen.Strategy().Name
		}
	}
}

// arenaCounts returns the scratch arena's cumulative gets and free-list hits.
func arenaCounts(ctx *spgcnn.Ctx) (gets, hits int64) {
	st := ctx.Arena().Stats()
	return st.Gets, st.Hits
}

// views returns ts reshaped to dims (shared data), as Network.Forward does
// between layers that flatten.
func views(ts []*spgcnn.Tensor, dims []int) []*spgcnn.Tensor {
	out := make([]*spgcnn.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Reshape(dims...)
	}
	return out
}

// prepareWalk allocates the harness's own buffers for driving a step layer
// by layer.
func (r *trainRig) prepareWalk() {
	if r.acts != nil {
		return
	}
	n := r.batch
	for i := 0; i < n; i++ {
		r.ins = append(r.ins, spgcnn.NewTensor(r.net.InDims()...))
		r.dlogits = append(r.dlogits, spgcnn.NewTensor(r.net.OutDims()...))
	}
	L := len(r.layers)
	r.acts = make([][]*spgcnn.Tensor, L)
	r.grads = make([][]*spgcnn.Tensor, L)
	for l, layer := range r.layers {
		for i := 0; i < n; i++ {
			r.acts[l] = append(r.acts[l], spgcnn.NewTensor(layer.OutDims()...))
			r.grads[l] = append(r.grads[l], spgcnn.NewTensor(layer.InDims()...))
		}
	}
	r.inViews = make([][]*spgcnn.Tensor, L)
	r.eoViews = make([][]*spgcnn.Tensor, L)
	for l, layer := range r.layers {
		prev := r.ins
		if l > 0 {
			prev = r.acts[l-1]
		}
		r.inViews[l] = views(prev, layer.InDims())
		next := r.dlogits
		if l < L-1 {
			next = r.grads[l+1]
		}
		r.eoViews[l] = views(next, layer.OutDims())
	}
}

// walkForward runs the batch already in r.ins through every layer on the
// harness's buffers, one span per layer under parent.
func (r *trainRig) walkForward(rec *recorder, parent, op int) []*spgcnn.Tensor {
	for l, layer := range r.layers {
		id := rec.begin("nn.fp/"+r.layerLabel(l), parent, op)
		layer.Forward(r.acts[l], r.inViews[l])
		rec.end(id)
	}
	return r.acts[len(r.layers)-1]
}

// layerLabel is "<kind>/<net>:<layer>", so span names aggregate by kind
// and stay distinct across nets that reuse layer names.
func (r *trainRig) layerLabel(l int) string {
	kind := "glue/"
	switch r.kinds[l] {
	case kindConv:
		kind = "conv/"
	case kindFC:
		kind = "fc/"
	}
	return kind + r.name + ":" + r.layers[l].Name()
}

// walkIdentical checks that the harness's layer walk computes logits
// bit-identical to Network.Forward on the fixed batch.
func (r *trainRig) walkIdentical() bool {
	r.prepareWalk()
	want := cloneAll(r.net.Forward(r.fixed))
	for i, t := range r.fixed {
		copy(r.ins[i].Data, t.Data)
	}
	got := r.walkForward(nil, -1, 0)
	for i := range got {
		if !tensor.Identical(got[i].Reshape(want[i].Dims...), want[i]) {
			return false
		}
	}
	return true
}

// captured holds one conv layer's inputs and output-error gradients from a
// real step, for the engine sweep.
type captured struct {
	spec     spgcnn.ConvSpec
	ins, eos []*spgcnn.Tensor
}

// walkStep drives one SGD step from outside, exactly as Trainer.TrainEpoch
// does (fill, forward, loss, backward, apply), recording the span tree
// step -> data.fill / nn.fp -> layers / nn.loss / nn.bp -> layers / nn.apply.
// capture, when non-nil, receives clones of the named conv layers' tensors.
func (r *trainRig) walkStep(rec *recorder, op int, idx []int, capture map[string]*captured) (loss float64) {
	n := len(idx)
	step := rec.begin("step/"+r.name, -1, op)

	id := rec.begin("data.fill", step, op)
	for i, ex := range idx {
		r.ds.Image(ex, r.ins[i])
	}
	rec.end(id)

	fp := rec.begin("nn.fp", step, op)
	logits := r.walkForward(rec, fp, op)
	rec.end(fp)

	id = rec.begin("nn.loss", step, op)
	for i, ex := range idx {
		l, _ := r.trainer.Loss.Loss(logits[i], r.ds.Label(ex), r.dlogits[i])
		loss += l
	}
	rec.end(id)

	bp := rec.begin("nn.bp", step, op)
	for l := len(r.layers) - 1; l >= 0; l-- {
		layer := r.layers[l]
		if c, ok := capture[layer.Name()]; ok && r.kinds[l] == kindConv {
			c.spec = r.layers[l].(*nn.Conv).Spec()
			c.ins, c.eos = cloneAll(r.inViews[l][:n]), cloneAll(r.eoViews[l][:n])
		}
		id := rec.begin("nn.bp/"+r.layerLabel(l), bp, op)
		layer.Backward(r.grads[l][:n], r.eoViews[l][:n], r.inViews[l][:n])
		rec.end(id)
	}
	rec.end(bp)

	id = rec.begin("nn.apply", step, op)
	r.net.ApplyGrads(r.lr, n)
	rec.end(id)

	rec.end(step)
	return loss
}

// walkEpoch is Trainer.TrainEpoch driven from outside: a shuffled pass over
// the dataset in minibatches, then the epoch-end hook. onStep fires before
// every step with the op id the step's spans will carry.
func (r *trainRig) walkEpoch(rec *recorder, nextOp func() int) (loss float64, sparsity map[string]float64) {
	r.prepareWalk()
	order := r.rng.Perm(r.ds.Len())
	for lo := 0; lo+r.batch <= len(order); lo += r.batch {
		loss += r.walkStep(rec, nextOp(), order[lo:lo+r.batch], nil)
	}
	r.net.EpochEnd()
	sparsity = map[string]float64{}
	for _, c := range r.convs {
		if s, ok := c.TakeSparsity(); ok {
			sparsity[c.Name()] = s
		}
	}
	return loss / float64(r.ds.Len()), sparsity
}

// convFlops returns per-image dense flops of every conv layer: FP and BP
// (input-error plus delta-weights).
func (r *trainRig) convFlops() (names []string, fp, bp []float64, intensity []float64) {
	for _, c := range r.convs {
		s := c.Spec()
		names = append(names, c.Name())
		fp = append(fp, float64(s.FlopsFP()))
		bp = append(bp, float64(s.FlopsBPInput()+s.FlopsBPWeights()))
		intensity = append(intensity, spgcnn.Analyze(s).IntrinsicAIT)
	}
	return
}

// referenceName is the strategy name of the reference-oracle fallback.
func referenceName() string { return core.ReferenceStrategy().Name }

// ---- engine sweep ----

// sweepEngines times every FP and BP candidate strategy, keyed by its name
// (never by its position in the candidate list), on one captured conv layer
// at its real batch. FP is reported as dense
// GFlop/s, BP as useful GFlop/s (dense flops times the captured gradients'
// density). A strategy whose engine does not support the spec is absent.
func sweepEngines(c *captured, workers, reps int, seed uint64) (fp, bp map[string]float64) {
	ctx := spgcnn.NewCtx(workers)
	w := spgcnn.NewWeights(c.spec)
	w.FillNormal(spgcnn.NewRNG(seed), 0, 0.05)
	w.Bump()
	n := len(c.ins)
	outs := make([]*spgcnn.Tensor, n)
	eis := make([]*spgcnn.Tensor, n)
	density := 0.0
	for i := range outs {
		outs[i] = spgcnn.NewOutput(c.spec)
		eis[i] = spgcnn.NewInput(c.spec)
		density += 1 - c.eos[i].Sparsity()
	}
	density /= float64(n)
	dw := spgcnn.NewWeights(c.spec)

	fp, bp = map[string]float64{}, map[string]float64{}
	for _, st := range spgcnn.FPStrategies(workers) {
		if !st.Supports(c.spec) {
			continue
		}
		e := spgcnn.NewExecCtx(st, c.spec, ctx)
		t := minOf(reps, func() { e.Forward(outs, c.ins, w) })
		fp[st.Name] = float64(n) * float64(c.spec.FlopsFP()) / t / 1e9
	}
	for _, st := range spgcnn.BPStrategies(workers) {
		if !st.Supports(c.spec) {
			continue
		}
		e := spgcnn.NewExecCtx(st, c.spec, ctx)
		t := minOf(reps, func() {
			e.BackwardInput(eis, c.eos, w)
			e.BackwardWeights(dw, c.eos, c.ins)
		})
		bp[st.Name] = float64(n) * float64(c.spec.FlopsBPInput()+c.spec.FlopsBPWeights()) * density / t / 1e9
	}
	return fp, bp
}

// minOf runs fn once to warm up and returns the fastest of reps timed runs,
// in seconds.
func minOf(reps int, fn func()) float64 {
	fn()
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if el := time.Since(start).Seconds(); el < best {
			best = el
		}
	}
	return best
}

// ---- micro probes (bytes are computed from tensor sizes, not measured) ----

func fillMatrix(m *gemm.Matrix, r *spgcnn.RNG) {
	for i := range m.Data {
		m.Data[i] = r.Float32() - 0.5
	}
}

// gemmProbes times the three GEMM entry points on the two ledger shapes and
// returns GFlop/s keyed like the ledger names.
func gemmProbes(workers, reps int) map[string]float64 {
	out := map[string]float64{}
	r := spgcnn.NewRNG(7)
	for _, sh := range [][3]int{{64, 1600, 16}, {256, 256, 256}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, c := gemm.NewMatrix(m, k), gemm.NewMatrix(k, n), gemm.NewMatrix(m, n)
		fillMatrix(a, r)
		fillMatrix(b, r)
		gf := func(t float64) float64 { return float64(gemm.Flops(m, n, k)) / t / 1e9 }
		tag := fmt.Sprintf("%dx%dx%d", m, k, n)
		out["gemm.serial_gflops."+tag] = gf(minOf(reps, func() { gemm.Serial(c, a, b) }))
		out["gemm.packed_gflops."+tag] = gf(minOf(reps, func() { gemm.PackedSerial(c, a, b) }))
		if m == 256 {
			out["gemm.parallel_gflops."+tag] = gf(minOf(reps, func() { gemm.Parallel(c, a, b, workers) }))
		}
	}
	return out
}

// memoryProbes times im2col, CT-CSR encoding at 0.9 sparsity and the two
// blocked-layout conversions on CIFAR conv0-sized operands, in GB/s of
// bytes computed from the operand sizes (source read plus destination
// written).
func memoryProbes(reps int) map[string]float64 {
	out := map[string]float64{}
	r := spgcnn.NewRNG(9)
	s := spgcnn.Square(36, 64, 3, 5, 1)

	in := spgcnn.NewInput(s)
	in.FillNormal(r, 0, 1)
	u := unfold.NewU(s)
	bytes := 4 * float64(len(in.Data)+len(u.Data))
	out["unfold.im2col_gbs"] = bytes / minOf(reps, func() { unfold.Im2col(s, u, in) }) / 1e9

	eo := spgcnn.NewOutput(s)
	eo.FillNormal(r, 0, 1)
	eo.Sparsify(r, 0.9)
	rows, cols := s.Nf, s.OutY()*s.OutX()
	var m sparse.CTCSR
	bytes = 4 * float64(rows*cols)
	out["sparse.ctcsr_encode_gbs"] = bytes / minOf(reps, func() { sparse.FromDenseCTInto(&m, eo.Data, rows, cols, 0) }) / 1e9

	act := spgcnn.NewOutput(s)
	act.FillNormal(r, 0, 1)
	blk := tensor.ToBlocked(act)
	bytes = 4 * float64(len(act.Data)+len(blk.Data))
	out["tensor.to_blocked_gbs"] = bytes / minOf(reps, func() { tensor.ToBlockedInto(blk, act) }) / 1e9
	out["tensor.from_blocked_gbs"] = bytes / minOf(reps, func() { tensor.FromBlockedInto(act, blk) }) / 1e9
	return out
}

// calibrate runs the program's two host probes: attainable single-core
// GFlop/s and single-stream copy GB/s.
func calibrate() (peakGFlops, streamGBs float64) {
	m := machine.CalibrateHost()
	// CalibrateHost publishes the stream probe only as the shared bandwidth
	// it assumes saturates at four streams.
	return m.PeakGFlopsPerCore, m.SharedBandwidthGBs / 4
}

// ---- data-parallel probe ----

type dpResult struct {
	SyncMs, ImagesPerS, BarrierWaitShare float64
}

// dataParallelProbe trains the description on two single-worker replicas
// with the ring schedule for the given number of epochs and reports the
// last epoch (the first pays for planning).
func dataParallelProbe(src netSrc, cfg workloadCfg, seed uint64, epochs int) (dpResult, error) {
	def, err := spgcnn.ParseNet(src.Src)
	if err != nil {
		return dpResult{}, err
	}
	dp, err := spgcnn.NewDataParallelFromDef(def, spgcnn.BuildOptions{Workers: 1, Seed: seed},
		spgcnn.DataParallelConfig{Replicas: 2, LR: cfg.LR, GlobalBatch: cfg.Batch, AllReduce: spgcnn.AllReduceRing})
	if err != nil {
		return dpResult{}, err
	}
	in := def.Input
	ds := data.New(data.Config{Name: src.Name, Examples: cfg.Examples, Classes: 10,
		Channels: in.Channels, Height: in.Height, Width: in.Width, Seed: seed})
	r := spgcnn.NewRNG(seed ^ 0xd9)
	var st spgcnn.DataParallelStats
	for e := 0; e < epochs; e++ {
		st = dp.TrainEpoch(ds, r)
	}
	var wait, total float64
	for _, rs := range st.Replicas {
		wait += rs.BarrierWait
		total += rs.Total + rs.BarrierWait
	}
	res := dpResult{ImagesPerS: st.ImagesPerSec}
	if st.Syncs > 0 {
		res.SyncMs = st.AllReduceSeconds / float64(st.Syncs) * 1e3
	}
	if total > 0 {
		res.BarrierWaitShare = wait / total
	}
	return res, nil
}

// ---- serving ----

// serveRig is one serving model behind its HTTP handler, wired with the
// telemetry the workload names.
type serveRig struct {
	model   *spgcnn.ServeModel
	srv     *spgcnn.Server
	planner *spgcnn.Planner
	buildMs float64 // Parse + NewServeModel
	warmMs  float64 // Model.Warmup() of every bucket
}

// buildServe builds the model and server the way cmd/spg-serve does. With
// cfg.Instrumented it wires everything `spg-serve -trace -drift` wires
// (registry, context/runtime/planner metrics, report-only observatory,
// ring-mode trace recorder); otherwise the daemon's default (registry
// only). cfg.Telemetry false builds with no telemetry at all — the
// baseline of bench.telemetry_overhead_share.
func buildServe(src netSrc, cfg workloadCfg, seed uint64, planner *spgcnn.Planner) (*serveRig, error) {
	start := time.Now()
	def, err := spgcnn.ParseNet(src.Src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", src.Name, err)
	}
	model, err := spgcnn.NewServeModel(def, spgcnn.ServeModelConfig{
		Replicas: cfg.Replicas,
		Threads:  cfg.Threads,
		Buckets:  spgcnn.DefaultServeBuckets(cfg.MaxBatch),
		Planner:  planner,
		Seed:     seed,
	})
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", src.Name, err)
	}
	rig := &serveRig{model: model, planner: planner, buildMs: ms(time.Since(start))}

	var reg *spgcnn.MetricsRegistry
	var rec *spgcnn.TraceRecorder
	if cfg.Telemetry {
		reg = spgcnn.NewMetricsRegistry()
		spgcnn.BindMetrics(model.Ctx(0), reg)
		spgcnn.BindRuntimeMetrics(reg)
		spgcnn.BindPlannerMetrics(planner, reg)
	}
	if cfg.Telemetry && cfg.Instrumented {
		obsv := spgcnn.NewObservatory(spgcnn.ObservatoryOptions{Workers: cfg.Threads, Metrics: reg})
		for _, c := range model.ConvLayers() {
			obsv.RegisterLayer(c.Name(), c.Spec())
		}
		obsv.SetBatch(cfg.MaxBatch)
		rec = spgcnn.NewTraceRecorder(spgcnn.TraceOptions{Mode: spgcnn.TraceRing})
		spgcnn.BindTraceMetrics(rec, reg)
		for i := 0; i < model.Replicas(); i++ {
			model.Ctx(i).Probe().AddSink(obsv)
			spgcnn.AttachTraceCtx(rec, model.Ctx(i), i)
		}
		planner.SetTrace(rec.Emitter(-1, 0))
	}

	start = time.Now()
	model.Warmup()
	rig.warmMs = ms(time.Since(start))

	rig.srv, err = spgcnn.NewServer(spgcnn.ServeConfig{
		Model:    model,
		MaxBatch: cfg.MaxBatch,
		MaxDelay: cfg.MaxDelay,
		Metrics:  reg,
		Trace:    rec,
	})
	if err != nil {
		return nil, err
	}
	return rig, nil
}

func (r *serveRig) handler() http.Handler { return r.srv.Handler() }

// close drains the queue and stops the batch workers.
func (r *serveRig) close() { r.srv.Close() }

// warmupAgain re-runs Model.Warmup() with every bucket already planned.
func (r *serveRig) warmupAgain() float64 {
	start := time.Now()
	r.model.Warmup()
	return ms(time.Since(start))
}

// serveCounters are the Server.Stats() fields the ledger takes deltas of.
type serveCounters struct {
	Requests, Rejected, Batches, Images, PaddingRows int64
}

func (r *serveRig) counters() serveCounters {
	st := r.srv.Stats()
	return serveCounters{st.Requests, st.Rejected, st.Batches, st.Images, st.PaddingRows}
}

func (r *serveRig) deployed(into map[string]string) {
	for _, c := range r.model.ConvLayers() {
		buckets := c.PlannedBuckets()
		keys := make([]int, 0, len(buckets))
		for b := range buckets {
			keys = append(keys, b)
		}
		sort.Ints(keys)
		for _, b := range keys {
			into[fmt.Sprintf("%s/fp/b%d", c.Name(), b)] = buckets[b]
		}
	}
}

func (r *serveRig) arena() (gets, hits int64) { return arenaCounts(r.model.Ctx(0)) }

// inferDirect times Model.InferBatch on replica 0 with n copies of input,
// no HTTP: the fastest of reps, in ms.
func (r *serveRig) inferDirect(n int, input []float32, reps int) float64 {
	ins := make([]*spgcnn.Tensor, n)
	for i := range ins {
		ins[i] = spgcnn.NewTensor(r.model.InDims()...)
		copy(ins[i].Data, input)
	}
	return minOf(reps, func() { r.model.InferBatch(0, ins) }) * 1e3
}

// oracleOutputs computes the reference logits of every pool input on a twin
// model whose convolutions all run the reference strategy; same seed, so
// same weights as the served model.
func oracleOutputs(src netSrc, seed uint64, pool [][]float32) ([][]float32, error) {
	def, err := spgcnn.ParseNet(src.Src)
	if err != nil {
		return nil, err
	}
	ref := core.ReferenceStrategy()
	twin, err := spgcnn.NewServeModel(def, spgcnn.ServeModelConfig{FixedStrategy: &ref, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(pool))
	in := spgcnn.NewTensor(twin.InDims()...)
	for i, p := range pool {
		copy(in.Data, p)
		res, _ := twin.InferBatch(0, []*spgcnn.Tensor{in})
		out[i] = res[0]
	}
	return out, nil
}

// servedInputLen parses the description and returns the flat input length.
func servedInputLen(src netSrc) (int, error) {
	def, err := spgcnn.ParseNet(src.Src)
	if err != nil {
		return 0, err
	}
	return def.Input.Channels * def.Input.Height * def.Input.Width, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
