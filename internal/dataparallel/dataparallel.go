// Package dataparallel implements synchronous data-parallel SGD across
// model replicas — the cluster-scale context the paper situates spg-CNN in
// (§1, §6: DistBelief and Adam train large CNNs with many multicore-CPU
// workers; spg-CNN raises each worker's throughput). Workers here are
// goroutines with full model replicas, which makes the scaling structure
// of data parallelism — shard compute, synchronize parameters — executable
// and testable on one machine.
//
// Every global minibatch is sharded across the replicas; each replica runs
// forward/backward on its shard and applies a locally-scaled SGD step, and
// every SyncEvery steps the replicas' parameters are averaged (an
// all-reduce). With SyncEvery = 1 and plain SGD this is mathematically
// identical to single-worker large-batch SGD (the averaging of
// per-shard-scaled steps reconstructs the global gradient average);
// SyncEvery > 1 is local SGD with periodic averaging, trading
// synchronization cost for gradient staleness exactly as the paper's §6
// discussion of parameter-synchronization latency describes.
//
// A replica is an nn.Trainer: its shard of a step is nn.Trainer.Step, the
// same call a plain trainer's epoch loops over, and an epoch's statistics
// close through the same nn.EpochStats.Account. One replica is therefore not
// "N = 1 of the fleet loop" but replica 0's own nn.Trainer.TrainEpoch, run
// inline: no goroutine, no exchange, the tail batch trained.
package dataparallel

import (
	"fmt"
	"math"
	"sync"
	"time"

	"spgcnn/internal/ait"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
	"spgcnn/internal/trace"
)

// Config tunes the data-parallel run.
type Config struct {
	// Replicas is the worker count (>= 1).
	Replicas int
	// LR is the learning rate of the equivalent global-batch SGD.
	LR float32
	// GlobalBatch is the per-step minibatch size, sharded across replicas.
	GlobalBatch int
	// SyncEvery is the parameter-averaging period in steps (default 1 =
	// fully synchronous).
	SyncEvery int

	// AllReduce selects the reduction schedule (default MethodFlat;
	// MethodAuto ranks schedules with the machine.Cluster cost model).
	AllReduce Method
	// SparseSync selects the gradient-delta exchange mode: SparseOff
	// (default) is always-dense, SparseAuto ships CT-CSR deltas while
	// their density stays within the band boundary, SparseForce always
	// ships deltas.
	SparseSync string
	// Staleness enables the bounded-staleness async mode when > 0:
	// replicas run without a per-step barrier and may proceed up to
	// Staleness steps ahead of the slowest replica; parameter averaging
	// happens when a pending sync boundary has quiesced the fleet.
	// 0 = fully synchronous (the default).
	Staleness int
	// Mitigate closes the straggler loop: per-replica barrier-wait
	// attribution feeds an EWMA throughput estimate that re-chunks the
	// next step's shard assignment (slow replicas get fewer images, the
	// LR of each replica's locally-scaled step is rescaled to keep the
	// global update unbiased). It needs the step barrier: New rejects it
	// together with Staleness > 0.
	Mitigate bool
	// InjectSlowReplica / InjectSlowPerImage inject an artificial
	// straggler for benchmarking: replica InjectSlowReplica sleeps
	// InjectSlowPerImage × (its current share) after each step's compute.
	// Inactive unless InjectSlowPerImage > 0.
	InjectSlowReplica  int
	InjectSlowPerImage time.Duration
}

// Trainer coordinates the replicas.
type Trainer struct {
	// OnStep, when set, runs on the coordinating goroutine at the fleet's
	// quiescent point — before every global step in synchronous mode, at
	// every parameter sync in bounded-staleness mode, before every minibatch
	// at one replica — with the global step number. No replica has a batch
	// in flight.
	OnStep func(step int64)

	cfg      Config
	nets     []*nn.Network
	replicas []*replica
	ctxs     []*exec.Ctx // per-replica execution contexts (NewFromDef only)
	planner  core.Planner

	epoch int
	steps int

	exchange *Exchange // reduction subsystem (lazy; see ensureExchange)
	shares   []int     // per-replica images per step (sums to GlobalBatch)
	rate     []float64 // per-replica EWMA throughput (images/sec), 0 = unknown

	rec      *trace.Recorder
	coord    *trace.Emitter   // replica -1: all-reduce, planner, epoch accounting
	emitters []*trace.Emitter // one per replica
}

// replica is one model replica: the trainer that runs its shard of every
// step, and what its last step reported.
type replica struct {
	tr      *nn.Trainer
	loss    float64
	correct int
	secs    float64 // wall time of the last step
}

// New builds a data-parallel trainer. The builder must return
// identically-initialized networks (call it with the same seed per
// replica); this is verified by comparing the first parameter tensor.
func New(build func(replica int) *nn.Network, cfg Config) (*Trainer, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("dataparallel: replicas %d < 1", cfg.Replicas)
	}
	if cfg.GlobalBatch < cfg.Replicas {
		return nil, fmt.Errorf("dataparallel: global batch %d smaller than replica count %d",
			cfg.GlobalBatch, cfg.Replicas)
	}
	if cfg.GlobalBatch%cfg.Replicas != 0 {
		return nil, fmt.Errorf("dataparallel: global batch %d not divisible by %d replicas",
			cfg.GlobalBatch, cfg.Replicas)
	}
	if cfg.SyncEvery < 1 {
		cfg.SyncEvery = 1
	}
	if _, err := ParseMethod(string(cfg.AllReduce)); err != nil {
		return nil, err
	}
	if _, err := ParseSparseMode(cfg.SparseSync); err != nil {
		return nil, err
	}
	if cfg.Staleness < 0 {
		return nil, fmt.Errorf("dataparallel: staleness %d < 0", cfg.Staleness)
	}
	if cfg.Mitigate && cfg.Staleness > 0 {
		return nil, fmt.Errorf("dataparallel: mitigate re-chunks at the step barrier, which staleness %d removes; set one of the two",
			cfg.Staleness)
	}
	if cfg.InjectSlowPerImage > 0 &&
		(cfg.InjectSlowReplica < 0 || cfg.InjectSlowReplica >= cfg.Replicas) {
		return nil, fmt.Errorf("dataparallel: inject-slow replica %d out of range [0, %d)",
			cfg.InjectSlowReplica, cfg.Replicas)
	}
	t := &Trainer{cfg: cfg}
	t.shares = make([]int, cfg.Replicas)
	t.rate = make([]float64, cfg.Replicas)
	for w := range t.shares {
		t.shares[w] = cfg.GlobalBatch / cfg.Replicas
	}
	for i := 0; i < cfg.Replicas; i++ {
		net := build(i)
		if net == nil {
			return nil, fmt.Errorf("dataparallel: builder returned nil for replica %d", i)
		}
		t.nets = append(t.nets, net)
		t.replicas = append(t.replicas, &replica{tr: nn.NewTrainer(net, cfg.LR, t.shares[i])})
	}
	if err := t.checkAligned(); err != nil {
		return nil, err
	}
	if cfg.Replicas == 1 {
		t.replicas[0].tr.OnStep = t.onStep
	}
	return t, nil
}

// NewFromDef builds a data-parallel trainer whose replicas are constructed
// from one network description — the common case — with every replica
// sharing a single strategy planner. Replica 0's first measurement of each
// layer geometry is deployed verbatim to replicas 1..N-1 (and concurrent
// first-touch tuning is single-flighted), so an N-replica trainer pays for
// one tuning pass per distinct (geometry, phase, sparsity band), not N.
//
// Each replica still gets its own execution context: scratch arenas and
// probes must not be shared across goroutines that run concurrently. The
// Workers/Ctx fields of opts set the per-replica worker count; opts.Ctx,
// if non-nil, is used for replica 0 only and its worker count is cloned
// for the rest. If opts.Planner is nil a fresh shared plan.Planner is
// created (reachable afterward via Planner()).
func NewFromDef(def *netdef.NetDef, opts netdef.BuildOptions, cfg Config) (*Trainer, error) {
	if opts.Planner == nil {
		opts.Planner = plan.New(plan.Options{})
	}
	ctx0 := opts.Ctx
	workers := opts.Workers
	if ctx0 != nil {
		workers = ctx0.Workers()
	}
	var buildErr error
	var ctxs []*exec.Ctx
	t, err := New(func(replica int) *nn.Network {
		ro := opts
		if replica == 0 && ctx0 != nil {
			ro.Ctx = ctx0
		} else {
			ro.Ctx = exec.New(workers)
		}
		net, err := netdef.Build(def, ro)
		if err != nil {
			if buildErr == nil {
				buildErr = fmt.Errorf("dataparallel: replica %d: %w", replica, err)
			}
			return nil
		}
		ctxs = append(ctxs, ro.Ctx)
		return net
	}, cfg)
	if buildErr != nil {
		return nil, buildErr
	}
	if err != nil {
		return nil, err
	}
	t.ctxs = ctxs
	t.planner = opts.Planner
	return t, nil
}

// AddSink attaches an additional probe sink to every replica's execution
// context — how span observers that span replicas (the drift observatory)
// ride the trainer. Only usable on NewFromDef trainers, whose contexts the
// trainer owns; a no-op otherwise.
func (t *Trainer) AddSink(s exec.Sink) {
	for _, c := range t.ctxs {
		if c != nil {
			c.Probe().AddSink(s)
		}
	}
}

// BindTrace attaches a trace recorder to the trainer — the one place a
// training run meets the tracer: each replica gets an emitter (through
// trace.Attach its context's probe stream — layer, core and tune spans —
// plus arena growth land on its timeline row), the coordinator emitter
// carries all-reduce spans and every epoch's accounting instants (epoch,
// per-layer sparsity, skipped tail) and refreshes the live sparsity band,
// the shared planner's activity is traced when it is a *plan.Planner, and
// replica 0's conv layer flop metadata is registered for goodput-waste
// attribution. Call once, before training; a nil recorder is a no-op.
func (t *Trainer) BindTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	t.rec = rec
	t.coord = rec.Emitter(-1, 0)
	t.emitters = make([]*trace.Emitter, len(t.replicas))
	for w := range t.replicas {
		var c *exec.Ctx
		if w < len(t.ctxs) {
			c = t.ctxs[w]
		}
		t.emitters[w] = trace.Attach(rec, c, w)
	}
	if p, ok := t.planner.(*plan.Planner); ok {
		p.SetTrace(t.coord)
	}
	for _, c := range t.nets[0].ConvLayers() {
		spec := c.Spec()
		rec.AddLayerMeta(trace.LayerMeta{
			Name:    c.Name(),
			FPFlops: spec.FlopsFP(),
			BPFlops: spec.FlopsBPInput() + spec.FlopsBPWeights(),
		})
	}
}

// traceEpoch emits the epoch accounting events the goodput-waste analyzer
// consumes and refreshes the live sparsity band.
func (t *Trainer) traceEpoch(stats Stats) {
	if t.rec == nil {
		return
	}
	if stats.SkippedImages > 0 {
		t.coord.Instant("epoch", "skipped", "", float64(stats.SkippedImages))
	}
	if n := len(stats.ConvSparsity); n > 0 {
		mean := 0.0
		for _, s := range stats.ConvSparsity {
			mean += s
		}
		t.rec.SetBand(ait.Band(mean / float64(n)))
	}
	t.coord.Instant("epoch", "epoch", "", float64(stats.Images))
	for name, s := range stats.ConvSparsity {
		t.coord.Instant("sparsity", "sparsity/"+name, name, s)
	}
}

// onStep marks the fleet's quiescent point before global step `step`: the
// recorder's live step stamp moves and the caller's OnStep runs.
func (t *Trainer) onStep(step int64) {
	t.rec.SetStep(step)
	if t.OnStep != nil {
		t.OnStep(step)
	}
}

// em returns replica w's emitter (nil when no recorder is bound — every
// emitter method is nil-safe).
func (t *Trainer) em(w int) *trace.Emitter {
	if w < len(t.emitters) {
		return t.emitters[w]
	}
	return nil
}

// Planner returns the strategy planner the replicas share (nil when the
// trainer was built with New and no planner was threaded through).
func (t *Trainer) Planner() core.Planner { return t.planner }

// checkAligned verifies the replicas start from identical parameters.
func (t *Trainer) checkAligned() error {
	if len(t.nets) < 2 {
		return nil
	}
	ref := t.nets[0].Parameters()
	for i := 1; i < len(t.nets); i++ {
		ps := t.nets[i].Parameters()
		if len(ps) != len(ref) {
			return fmt.Errorf("dataparallel: replica %d has %d parameters, replica 0 has %d",
				i, len(ps), len(ref))
		}
		for j := range ps {
			if ps[j].Name != ref[j].Name || !ps[j].Tensor.SameShape(ref[j].Tensor) {
				return fmt.Errorf("dataparallel: replica %d parameter %q mismatches replica 0", i, ps[j].Name)
			}
			if tensor.MaxAbsDiff(ps[j].Tensor, ref[j].Tensor) != 0 {
				return fmt.Errorf("dataparallel: replica %d parameter %q initialized differently "+
					"(the builder must use the same seed for every replica)", i, ps[j].Name)
			}
		}
	}
	return nil
}

// ReplicaStats summarizes one replica's step times over an epoch — the
// straggler surface of a synchronous data-parallel run.
type ReplicaStats struct {
	Replica int
	Steps   int
	// Total/Min/Max are the replica's per-step wall times in seconds.
	Total, Min, Max float64
	// BarrierWait is the cumulative time this replica spent finished,
	// waiting at the step barrier for the slowest replica (seconds). In
	// async mode it is the time spent parked by the staleness bound or a
	// pending sync.
	BarrierWait float64
	// Share is the replica's images-per-step share at epoch end
	// (GlobalBatch/Replicas unless straggler mitigation re-chunked it).
	Share int
}

// Mean returns the replica's mean step time.
func (r ReplicaStats) Mean() float64 {
	if r.Steps == 0 {
		return 0
	}
	return r.Total / float64(r.Steps)
}

// Stats reports one epoch: the nn.EpochStats every trainer fills (loss,
// accuracy, throughput, per-layer gradient sparsity averaged across
// replicas, dense and Eq. 9 goodput conv work rates over the global image
// count) plus the fleet's own account.
type Stats struct {
	nn.EpochStats
	// Steps and Syncs count this epoch's global steps and parameter syncs.
	Steps int
	Syncs int
	// Replicas holds per-replica step-time min/max/mean and barrier-wait
	// attribution for this epoch. A single replica trains inline with no
	// per-step clock: its row carries Steps, Total and Share only.
	Replicas []ReplicaStats

	// SkippedImages counts trailing examples that did not fill a whole
	// global batch and were never trained on this epoch — an Eq. 9-style
	// waste term (work the epoch was supposed to do but didn't). Always 0
	// at one replica, which trains the tail batch.
	SkippedImages int
	// SkippedConvFlops is the conv work those images would have cost.
	SkippedConvFlops float64

	// AllReduceMethod is the schedule deployed by the last sync of the
	// epoch ("flat", "ring", "tree", with "+sparse" when deltas shipped).
	AllReduceMethod string
	// AllReduceSeconds is the cumulative wall time of this epoch's syncs.
	AllReduceSeconds float64
	// SparseSyncs counts the syncs that shipped CT-CSR deltas (the rest
	// of Syncs ran dense).
	SparseSyncs int
	// MeanDeltaDensity is the mean measured gradient-delta density across
	// syncs that computed deltas (-1 when none did).
	MeanDeltaDensity float64
	// WireBytes is the modeled interconnect traffic of this epoch's syncs
	// (what the rounds would ship on a scale-out fabric).
	WireBytes int64
	// Rechunks counts mitigation share reassignments this epoch.
	Rechunks int
	// StalenessMax is the largest observed step gap between the fastest
	// and slowest replica at a sync point (async mode; 0 when
	// synchronous).
	StalenessMax int
}

// epochTally accumulates one epoch's training tallies and sync-round
// telemetry; TrainEpoch's epilogue turns it into Stats.
type epochTally struct {
	loss    float64
	correct int
	images  int
	steps   int
	perRep  []ReplicaStats

	syncs        int
	seconds      float64
	wire         int64
	sparse       int
	densitySum   float64
	densityN     int
	method       string
	rechunks     int
	stalenessMax int
}

// observe folds one finished step of replica w into the tally.
func (e *epochTally) observe(w int, rp *replica, images int) {
	e.loss += rp.loss
	e.correct += rp.correct
	e.images += images
	r := &e.perRep[w]
	r.Steps++
	r.Total += rp.secs
	r.Min = min(r.Min, rp.secs)
	r.Max = max(r.Max, rp.secs)
}

// TrainEpoch runs one shuffled pass over the dataset. One replica is
// replica 0's nn.Trainer.TrainEpoch, inline. A fleet shards every global
// batch: trailing examples that do not fill a whole one are skipped (every
// step must shard evenly) and reported as Stats.SkippedImages — an Eq.
// 9-style waste term; size datasets as multiples of GlobalBatch for exact
// epochs. cfg.Staleness > 0 schedules the fleet's steps under the bounded-
// staleness rule instead of the per-step barrier; everything around the
// schedule is shared.
func (t *Trainer) TrainEpoch(ds nn.Dataset, r *rng.RNG) Stats {
	cfg := t.cfg
	if cfg.Replicas == 1 {
		es := t.replicas[0].tr.TrainEpoch(ds, r)
		steps := (es.Images + cfg.GlobalBatch - 1) / cfg.GlobalBatch
		stats := Stats{EpochStats: es, Steps: steps, MeanDeltaDensity: -1,
			Replicas: []ReplicaStats{{Steps: steps, Total: es.Seconds, Share: cfg.GlobalBatch}}}
		t.traceEpoch(stats)
		return stats
	}
	// Build the reduction subsystem up front: the sparse base snapshot
	// must be taken while the replicas are aligned.
	t.ensureExchange()
	order := r.Perm(ds.Len())
	e := &epochTally{perRep: make([]ReplicaStats, cfg.Replicas)}
	for w := range e.perRep {
		e.perRep[w] = ReplicaStats{Replica: w, Min: math.MaxFloat64}
	}
	start := time.Now()
	if cfg.Staleness > 0 {
		t.runAsync(ds, order, e)
	} else {
		t.runSync(ds, order, e)
	}
	t.steps += e.steps
	t.epoch++
	for w := range e.perRep {
		if e.perRep[w].Steps == 0 {
			e.perRep[w].Min = 0
		}
		e.perRep[w].Share = t.shares[w]
	}
	stats := Stats{
		EpochStats:       nn.EpochStats{Epoch: t.epoch, Images: e.images, Seconds: time.Since(start).Seconds()},
		Steps:            e.steps,
		Syncs:            e.syncs,
		Replicas:         e.perRep,
		SkippedImages:    len(order) % cfg.GlobalBatch,
		AllReduceMethod:  e.method,
		AllReduceSeconds: e.seconds,
		SparseSyncs:      e.sparse,
		MeanDeltaDensity: -1,
		WireBytes:        e.wire,
		Rechunks:         e.rechunks,
		StalenessMax:     e.stalenessMax,
	}
	if e.densityN > 0 {
		stats.MeanDeltaDensity = e.densitySum / float64(e.densityN)
	}
	stats.SkippedConvFlops = stats.Account(e.loss, e.correct, t.nets...) * float64(stats.SkippedImages)
	t.traceEpoch(stats)
	return stats
}

// runSync schedules the epoch's steps under the per-step barrier: every
// replica runs its shard of a global step on its own goroutine, the
// coordinator waits for all of them, attributes the barrier wait, re-chunks
// when mitigating, and averages parameters every SyncEvery steps.
func (t *Trainer) runSync(ds nn.Dataset, order []int, e *epochTally) {
	cfg := t.cfg
	offsets := make([]int, cfg.Replicas)
	for lo := 0; lo+cfg.GlobalBatch <= len(order); lo += cfg.GlobalBatch {
		t.onStep(int64(t.steps + e.steps + 1))
		off := 0
		for w := range offsets {
			offsets[w] = off
			off += t.shares[w]
		}
		var wg sync.WaitGroup
		wg.Add(cfg.Replicas)
		for w := 0; w < cfg.Replicas; w++ {
			go func(w int) {
				defer wg.Done()
				t.runStep(ds, w, order[lo+offsets[w]:lo+offsets[w]+t.shares[w]])
			}(w)
		}
		wg.Wait()
		slowest := 0.0
		for _, rp := range t.replicas {
			slowest = max(slowest, rp.secs)
		}
		for w, rp := range t.replicas {
			e.observe(w, rp, t.shares[w])
			if rp.secs < slowest {
				wait := slowest - rp.secs
				e.perRep[w].BarrierWait += wait
				t.em(w).Instant("sync", "barrier", "", wait)
			}
		}
		if cfg.Mitigate {
			t.rechunk(e)
		}
		e.steps++
		if (t.steps+e.steps)%cfg.SyncEvery == 0 {
			t.sync(e)
		}
	}
}

// runStep executes one replica's shard of one global step through its
// trainer's Step. The LR is rescaled for unequal mitigation shares so the
// replica average still reconstructs the lr/GlobalBatch global step (at
// equal shares the rescale is exactly cfg.LR, preserving the historical
// arithmetic).
func (t *Trainer) runStep(ds nn.Dataset, w int, idx []int) {
	cfg := t.cfg
	rp := t.replicas[w]
	stepStart := time.Now()
	t.em(w).Region("step", "step", func() {
		lr := cfg.LR
		if share := len(idx); share*cfg.Replicas != cfg.GlobalBatch {
			lr = cfg.LR * float32(share*cfg.Replicas) / float32(cfg.GlobalBatch)
		}
		rp.loss, rp.correct = rp.tr.Step(ds, idx, lr)
		if cfg.InjectSlowPerImage > 0 && w == cfg.InjectSlowReplica {
			time.Sleep(cfg.InjectSlowPerImage * time.Duration(len(idx)))
		}
	})
	rp.secs = time.Since(stepStart).Seconds()
}

// sync runs one parameter-averaging round through the reduction subsystem
// and records its telemetry.
func (t *Trainer) sync(es *epochTally) {
	arStart := time.Now()
	info := t.exchange.Sync()
	dur := time.Since(arStart)
	method := string(info.Method)
	if info.Sparse {
		method += "+sparse"
	}
	t.coord.SpanDetail("sync", "allreduce", method, float64(info.WireBytes), arStart, dur)
	es.syncs++
	es.seconds += dur.Seconds()
	es.wire += info.WireBytes
	es.method = method
	if info.Sparse {
		es.sparse++
	}
	if info.Density >= 0 {
		es.densitySum += info.Density
		es.densityN++
	}
}

// ensureExchange lazily builds the reduction subsystem over the replicas'
// live parameter views, with the machine.Cluster cost model as the
// MethodAuto ranker.
func (t *Trainer) ensureExchange() {
	if t.exchange != nil {
		return
	}
	// New verified the alignment the exchange's base snapshot assumes;
	// whatever a caller restored into the replicas since must have reached
	// every one of them.
	if err := t.checkAligned(); err != nil {
		panic(err)
	}
	views := make([][][]float32, len(t.nets))
	for i, net := range t.nets {
		ps := net.Parameters()
		views[i] = make([][]float32, len(ps))
		for j, p := range ps {
			views[i][j] = p.Tensor.Data
		}
	}
	cl := machine.DefaultCluster(len(t.nets))
	ranker := func(elems, replicas int, density float64) (Method, bool) {
		best := cl.BestAllReduce(elems, density)
		return Method(best.Method), best.Sparse
	}
	t.exchange = NewExchange(t.cfg.AllReduce, t.cfg.SparseSync, views, ranker)
}

// rechunk closes the straggler loop: the step that just finished updates
// each replica's EWMA throughput, and shares are reassigned proportionally
// (largest-remainder rounding, minimum 1 image) so next step's barrier
// wait concentrates less on the fast replicas.
func (t *Trainer) rechunk(es *epochTally) {
	n := t.cfg.Replicas
	if n < 2 {
		return
	}
	const alpha = 0.5
	for w, rp := range t.replicas {
		if rp.secs <= 0 {
			continue
		}
		r := float64(t.shares[w]) / rp.secs
		if t.rate[w] == 0 {
			t.rate[w] = r
		} else {
			t.rate[w] = (1-alpha)*t.rate[w] + alpha*r
		}
	}
	var sum float64
	for _, r := range t.rate {
		if r <= 0 {
			return // not every replica measured yet
		}
		sum += r
	}
	b := t.cfg.GlobalBatch
	target := make([]int, n)
	frac := make([]float64, n)
	assigned := 0
	for w := range target {
		ideal := float64(b) * t.rate[w] / sum
		fl := int(ideal)
		if fl < 1 {
			fl = 1
		}
		target[w] = fl
		frac[w] = ideal - float64(fl)
		assigned += fl
	}
	for assigned < b {
		best := 0
		for w := 1; w < n; w++ {
			if frac[w] > frac[best] {
				best = w
			}
		}
		target[best]++
		frac[best] = -1
		assigned++
	}
	for assigned > b {
		best := -1
		for w := 0; w < n; w++ {
			if target[w] > 1 && (best < 0 || frac[w] < frac[best]) {
				best = w
			}
		}
		if best < 0 {
			break
		}
		target[best]--
		frac[best] = 2
		assigned--
	}
	moved := 0
	for w := range target {
		d := target[w] - t.shares[w]
		if d < 0 {
			d = -d
		}
		moved += d
	}
	if moved == 0 {
		return
	}
	copy(t.shares, target)
	es.rechunks++
	t.coord.Instant("sync", "rechunk", "", float64(moved))
}

// Replica returns replica i's network (replica 0 is the canonical model
// after a sync). A checkpoint restored before the first epoch must be
// restored into every replica: the first TrainEpoch re-checks alignment and
// panics on a fleet that diverged before it trained.
func (t *Trainer) Replica(i int) *nn.Network { return t.nets[i] }
