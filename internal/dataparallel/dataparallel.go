// Package dataparallel implements synchronous data-parallel SGD across
// model replicas — the cluster-scale context the paper situates spg-CNN in
// (§1, §6: DistBelief and Adam train large CNNs with many multicore-CPU
// workers; spg-CNN raises each worker's throughput). Workers here are
// goroutines with full model replicas, which makes the scaling structure
// of data parallelism — shard compute, synchronize parameters — executable
// and testable on one machine.
//
// There is one schedule. Every global minibatch is sharded evenly across
// the replicas; each replica runs forward/backward on its shard and applies
// a locally-scaled SGD step, the coordinator waits for all of them at the
// step barrier, and every SyncEvery steps the replicas' parameters are
// averaged by the chunked ring reduce (allreduce.go). With SyncEvery = 1 and
// plain SGD this is mathematically identical to single-worker large-batch
// SGD (the averaging of per-shard-scaled steps reconstructs the global
// gradient average); SyncEvery > 1 is local SGD with periodic averaging,
// trading synchronization cost for gradient staleness as the paper's §6
// discussion of parameter-synchronization latency describes.
//
// A replica is an nn.Trainer: its shard of a step is nn.Trainer.Step, the
// same call a plain trainer's epoch loops over, and an epoch's statistics
// close through the same nn.EpochStats.Account. One replica is therefore not
// "N = 1 of the fleet loop" but replica 0's own nn.Trainer.TrainEpoch, run
// inline: no goroutine, no ring, the tail batch trained.
package dataparallel

import (
	"fmt"
	"math"
	"sync"

	"spgcnn/internal/ait"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
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
	// AllReduce names the parameter-sync schedule: "" or "ring", the only
	// one; anything else is an error. It is kept for the repository
	// benchmark, which sets it, and goes with the next benchmark-only change.
	AllReduce string
}

// Trainer coordinates the replicas.
type Trainer struct {
	// OnStep, when set, runs on the coordinating goroutine at the fleet's
	// quiescent point — before every global step, before every minibatch at
	// one replica — with the global step number. No replica has a batch in
	// flight.
	OnStep func(step int64)

	cfg      Config
	nets     []*nn.Network
	replicas []*replica
	ctxs     []*exec.Ctx // per-replica execution contexts (NewFromDef only)
	planner  core.Planner

	epoch int
	steps int

	ring *ring // parameter averaging (lazy; see ensureRing)

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
	if cfg.AllReduce != "" && cfg.AllReduce != "ring" {
		return nil, fmt.Errorf("dataparallel: unknown allreduce schedule %q (the ring is the only one)", cfg.AllReduce)
	}
	t := &Trainer{cfg: cfg}
	for i := 0; i < cfg.Replicas; i++ {
		net := build(i)
		if net == nil {
			return nil, fmt.Errorf("dataparallel: builder returned nil for replica %d", i)
		}
		t.nets = append(t.nets, net)
		t.replicas = append(t.replicas, &replica{tr: nn.NewTrainer(net, cfg.LR, cfg.GlobalBatch/cfg.Replicas)})
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
	// waiting at the step barrier for the slowest replica (seconds).
	BarrierWait float64
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
	// per-step clock: its row carries Steps and Total only.
	Replicas []ReplicaStats

	// SkippedImages counts trailing examples that did not fill a whole
	// global batch and were never trained on this epoch — an Eq. 9-style
	// waste term (work the epoch was supposed to do but didn't). Always 0
	// at one replica, which trains the tail batch.
	SkippedImages int
	// SkippedConvFlops is the conv work those images would have cost.
	SkippedConvFlops float64

	// AllReduceSeconds is the cumulative wall time of this epoch's syncs.
	AllReduceSeconds float64
}

// TrainEpoch runs one shuffled pass over the dataset. One replica is
// replica 0's nn.Trainer.TrainEpoch, inline. A fleet runs every global step
// under the step barrier: each replica runs its even shard on its own
// goroutine, the coordinator waits for all of them and attributes the
// barrier wait, and every SyncEvery steps the ring averages the parameters.
// Trailing examples that do not fill a whole global batch are skipped
// (every step must shard evenly) and reported as Stats.SkippedImages — an
// Eq. 9-style waste term; size datasets as multiples of GlobalBatch for
// exact epochs.
func (t *Trainer) TrainEpoch(ds nn.Dataset, r *rng.RNG) Stats {
	cfg := t.cfg
	if cfg.Replicas == 1 {
		es := t.replicas[0].tr.TrainEpoch(ds, r)
		steps := (es.Images + cfg.GlobalBatch - 1) / cfg.GlobalBatch
		stats := Stats{EpochStats: es, Steps: steps,
			Replicas: []ReplicaStats{{Steps: steps, Total: es.Seconds}}}
		t.traceEpoch(stats)
		return stats
	}
	t.ensureRing()
	order := r.Perm(ds.Len())
	stats := Stats{Replicas: make([]ReplicaStats, cfg.Replicas), SkippedImages: len(order) % cfg.GlobalBatch}
	for w := range stats.Replicas {
		stats.Replicas[w] = ReplicaStats{Replica: w, Min: math.MaxFloat64}
	}
	shard := cfg.GlobalBatch / cfg.Replicas
	var loss float64
	var correct int
	start := t.nets[0].Probe().Now()
	for lo := 0; lo+cfg.GlobalBatch <= len(order); lo += cfg.GlobalBatch {
		t.steps++
		t.onStep(int64(t.steps))
		var wg sync.WaitGroup
		wg.Add(cfg.Replicas)
		for w := 0; w < cfg.Replicas; w++ {
			go func(w int) {
				defer wg.Done()
				t.runStep(ds, w, order[lo+w*shard:lo+(w+1)*shard])
			}(w)
		}
		wg.Wait()
		slowest := 0.0
		for _, rp := range t.replicas {
			slowest = max(slowest, rp.secs)
		}
		for w, rp := range t.replicas {
			loss += rp.loss
			correct += rp.correct
			rs := &stats.Replicas[w]
			rs.Steps++
			rs.Total += rp.secs
			rs.Min = min(rs.Min, rp.secs)
			rs.Max = max(rs.Max, rp.secs)
			if rp.secs < slowest {
				wait := slowest - rp.secs
				rs.BarrierWait += wait
				t.em(w).Instant("sync", "barrier", "", wait)
			}
		}
		stats.Steps++
		if t.steps%cfg.SyncEvery == 0 {
			stats.Syncs++
			stats.AllReduceSeconds += t.sync()
		}
	}
	t.epoch++
	for w := range stats.Replicas {
		if stats.Replicas[w].Steps == 0 {
			stats.Replicas[w].Min = 0
		}
	}
	stats.EpochStats = nn.EpochStats{Epoch: t.epoch, Images: stats.Steps * cfg.GlobalBatch, Seconds: (t.nets[0].Probe().Now() - start).Seconds()}
	stats.SkippedConvFlops = stats.Account(loss, correct, t.nets...) * float64(stats.SkippedImages)
	t.traceEpoch(stats)
	return stats
}

// runStep executes one replica's shard of one global step through its
// trainer's Step and clocks it on the replica's probe.
func (t *Trainer) runStep(ds nn.Dataset, w int, idx []int) {
	rp := t.replicas[w]
	start := t.nets[w].Probe().Now()
	t.em(w).Region("step", "step", func() {
		rp.loss, rp.correct = rp.tr.Step(ds, idx, t.cfg.LR)
	})
	rp.secs = (t.nets[w].Probe().Now() - start).Seconds()
}

// sync runs one parameter-averaging round through the ring, traces it and
// returns its time in seconds on replica 0's probe clock.
func (t *Trainer) sync() float64 {
	start := t.nets[0].Probe().Now()
	t.ring.reduce()
	secs := (t.nets[0].Probe().Now() - start).Seconds()
	t.coord.End("sync", "allreduce", secs)
	return secs
}

// ensureRing lazily builds the ring over the replicas' live parameter
// views.
func (t *Trainer) ensureRing() {
	if t.ring != nil {
		return
	}
	// New verified the alignment; whatever a caller restored into the
	// replicas since must have reached every one of them, or the first
	// sync would average two different models.
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
	t.ring = newRing(views)
}

// Replica returns replica i's network (replica 0 is the canonical model
// after a sync). A checkpoint restored before the first epoch must be
// restored into every replica: the first TrainEpoch re-checks alignment and
// panics on a fleet that diverged before it trained.
func (t *Trainer) Replica(i int) *nn.Network { return t.nets[i] }
