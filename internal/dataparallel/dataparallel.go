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
package dataparallel

import (
	"fmt"
	"math"
	"sync"
	"time"

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
	// global update unbiased). Synchronous mode only.
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
	cfg      Config
	replicas []*nn.Network
	trainers []*shardState
	ctxs     []*exec.Ctx // per-replica execution contexts (NewFromDef only)
	planner  core.Planner
	loss     nn.SoftmaxXent

	steps int
	syncs int

	exchange *Exchange // reduction subsystem (lazy; see ensureExchange)
	shares   []int     // per-replica images per step (sums to GlobalBatch)
	rate     []float64 // per-replica EWMA throughput (images/sec), 0 = unknown

	rec      *trace.Recorder
	coord    *trace.Emitter   // replica -1: all-reduce, planner, epoch accounting
	emitters []*trace.Emitter // one per replica
}

// shardState is one replica's working storage.
type shardState struct {
	inputs  []*tensor.Tensor
	dlogits []*tensor.Tensor
	loss    float64
	correct int
	images  int
	secs    float64 // wall time of the replica's last step
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
		t.replicas = append(t.replicas, net)
		t.trainers = append(t.trainers, &shardState{})
	}
	if err := t.checkAligned(); err != nil {
		return nil, err
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

// BindTrace attaches a trace recorder to the trainer: each replica gets an
// emitter (its probe stream — layer, core and tune spans — plus arena
// growth land on its timeline row), the coordinator emitter carries
// all-reduce spans and epoch accounting, the shared planner's activity is
// traced when it is a *plan.Planner, and replica 0's conv layer flop
// metadata is registered for goodput-waste attribution. Call once, before
// training; a nil recorder is a no-op.
func (t *Trainer) BindTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	t.rec = rec
	t.coord = rec.Emitter(-1, 0)
	t.emitters = make([]*trace.Emitter, len(t.replicas))
	for w := range t.replicas {
		em := rec.Emitter(w, 0)
		t.emitters[w] = em
		if w < len(t.ctxs) && t.ctxs[w] != nil {
			t.ctxs[w].Probe().AddSink(trace.NewProbeSink(em))
			em := em
			t.ctxs[w].Arena().SetGrowHook(func(bytes int64) {
				em.Instant("arena", "grow", "", float64(bytes))
			})
		}
	}
	if p, ok := t.planner.(*plan.Planner); ok {
		p.SetTrace(t.coord)
	}
	for _, c := range t.replicas[0].ConvLayers() {
		spec := c.Spec()
		rec.AddLayerMeta(trace.LayerMeta{
			Name:    c.Name(),
			FPFlops: spec.FlopsFP(),
			BPFlops: spec.FlopsBPInput() + spec.FlopsBPWeights(),
		})
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
	if len(t.replicas) < 2 {
		return nil
	}
	ref := t.replicas[0].Parameters()
	for i := 1; i < len(t.replicas); i++ {
		ps := t.replicas[i].Parameters()
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

// Stats reports one epoch.
type Stats struct {
	Loss         float64
	Accuracy     float64
	Images       int
	Seconds      float64
	ImagesPerSec float64
	Steps        int
	Syncs        int
	// Replicas holds per-replica step-time min/max/mean and barrier-wait
	// attribution for this epoch.
	Replicas []ReplicaStats
	// ConvSparsity maps conv layer name to its mean gradient sparsity over
	// the epoch, averaged across replicas.
	ConvSparsity map[string]float64
	// ConvGFlops / ConvGoodputGFlops mirror nn.EpochStats: the dense conv
	// work rate and the Eq. 9 useful-work rate over the global image count.
	ConvGFlops        float64
	ConvGoodputGFlops float64

	// SkippedImages counts trailing examples that did not fill a whole
	// global batch and were never trained on this epoch — an Eq. 9-style
	// waste term (work the epoch was supposed to do but didn't).
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

// epochSync accumulates sync-round telemetry over one epoch.
type epochSync struct {
	seconds      float64
	wire         int64
	sparse       int
	densitySum   float64
	densityN     int
	method       string
	rechunks     int
	stalenessMax int
}

// TrainEpoch runs one shuffled pass over the dataset. Trailing examples
// that do not fill a whole global batch are skipped (every step must shard
// evenly) and reported as Stats.SkippedImages — an Eq. 9-style waste term;
// size datasets as multiples of GlobalBatch for exact epochs. With
// cfg.Staleness > 0 the bounded-staleness async path runs instead of the
// per-step barrier.
func (t *Trainer) TrainEpoch(ds nn.Dataset, r *rng.RNG) Stats {
	if t.cfg.Staleness > 0 && t.cfg.Replicas >= 2 {
		return t.trainEpochAsync(ds, r)
	}
	cfg := t.cfg
	// Build the reduction subsystem up front: the sparse base snapshot
	// must be taken while the replicas are aligned.
	t.ensureExchange()
	order := r.Perm(ds.Len())
	start := time.Now()
	var totalLoss float64
	correct, images := 0, 0
	epochSyncs := 0
	es := &epochSync{}

	perRep := make([]ReplicaStats, cfg.Replicas)
	for w := range perRep {
		perRep[w] = ReplicaStats{Replica: w, Min: math.MaxFloat64}
	}

	offsets := make([]int, cfg.Replicas)
	for lo := 0; lo+cfg.GlobalBatch <= len(order); lo += cfg.GlobalBatch {
		t.rec.SetStep(int64(t.steps + 1))
		t.ensureBuffers(maxShare(t.shares))
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
				t.runStep(ds, w, order, lo+offsets[w], t.shares[w])
			}(w)
		}
		wg.Wait()
		slowest := 0.0
		for _, st := range t.trainers {
			totalLoss += st.loss
			correct += st.correct
			images += st.images
			if st.secs > slowest {
				slowest = st.secs
			}
		}
		for w, st := range t.trainers {
			r := &perRep[w]
			r.Steps++
			r.Total += st.secs
			if st.secs < r.Min {
				r.Min = st.secs
			}
			if st.secs > r.Max {
				r.Max = st.secs
			}
			if cfg.Replicas >= 2 && st.secs < slowest {
				wait := slowest - st.secs
				r.BarrierWait += wait
				t.em(w).Instant("sync", "barrier", "", wait)
			}
		}
		if cfg.Mitigate {
			t.rechunk(es)
		}
		t.steps++
		if t.steps%cfg.SyncEvery == 0 {
			t.sync(es)
			epochSyncs++
		}
	}
	// Epoch boundary: run every replica's scheduler re-check (§4.4's
	// periodic BP re-measurement). Replicas share the planner, so at most
	// one re-measurement per distinct geometry actually runs; the rest
	// deploy the refreshed verdict from cache.
	for _, net := range t.replicas {
		net.EpochEnd()
	}
	elapsed := time.Since(start).Seconds()
	for w := range perRep {
		if perRep[w].Steps == 0 {
			perRep[w].Min = 0
		}
		perRep[w].Share = t.shares[w]
	}
	stats := Stats{
		Loss:     safeDiv(totalLoss, float64(images)),
		Accuracy: safeDiv(float64(correct), float64(images)),
		Images:   images,
		Seconds:  elapsed,
		Steps:    t.steps,
		Syncs:    epochSyncs,
		Replicas: perRep,
	}
	if elapsed > 0 {
		stats.ImagesPerSec = float64(images) / elapsed
	}
	t.fillSyncStats(&stats, es, len(order)%cfg.GlobalBatch)
	t.convAccounting(&stats, images, elapsed)
	return stats
}

// runStep executes one replica's shard of one global step: share images
// starting at order[base], forward/backward, locally-scaled SGD step. The
// LR is rescaled for unequal mitigation shares so the replica average
// still reconstructs the lr/GlobalBatch global step (at equal shares the
// rescale is exactly cfg.LR, preserving the historical arithmetic).
func (t *Trainer) runStep(ds nn.Dataset, w int, order []int, base, share int) {
	cfg := t.cfg
	st := t.trainers[w]
	net := t.replicas[w]
	stepStart := time.Now()
	t.em(w).Region("step", "step", func() {
		for i := 0; i < share; i++ {
			ds.Image(order[base+i], st.inputs[i])
		}
		logits := net.Forward(st.inputs[:share])
		st.loss, st.correct = 0, 0
		for i := 0; i < share; i++ {
			l, ok := t.loss.Loss(logits[i], ds.Label(order[base+i]), st.dlogits[i])
			st.loss += l
			if ok {
				st.correct++
			}
		}
		st.images = share
		net.Backward(st.dlogits[:share], st.inputs[:share])
		lr := cfg.LR
		if share*cfg.Replicas != cfg.GlobalBatch {
			lr = cfg.LR * float32(share*cfg.Replicas) / float32(cfg.GlobalBatch)
		}
		net.ApplyGrads(lr, share)
		if cfg.InjectSlowPerImage > 0 && w == cfg.InjectSlowReplica {
			time.Sleep(cfg.InjectSlowPerImage * time.Duration(share))
		}
	})
	st.secs = time.Since(stepStart).Seconds()
}

// sync runs one parameter-averaging round through the reduction subsystem
// and records its telemetry.
func (t *Trainer) sync(es *epochSync) {
	t.ensureExchange()
	arStart := time.Now()
	info := t.exchange.Sync()
	dur := time.Since(arStart)
	method := string(info.Method)
	if info.Sparse {
		method += "+sparse"
	}
	t.coord.SpanDetail("sync", "allreduce", method, float64(info.WireBytes), arStart, dur)
	t.syncs++
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
	views := make([][][]float32, len(t.replicas))
	for i, net := range t.replicas {
		ps := net.Parameters()
		views[i] = make([][]float32, len(ps))
		for j, p := range ps {
			views[i][j] = p.Tensor.Data
		}
	}
	cl := machine.DefaultCluster(len(t.replicas))
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
func (t *Trainer) rechunk(es *epochSync) {
	n := t.cfg.Replicas
	if n < 2 {
		return
	}
	const alpha = 0.5
	for w, st := range t.trainers {
		if st.secs <= 0 {
			continue
		}
		r := float64(t.shares[w]) / st.secs
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

// fillSyncStats folds the epoch's sync telemetry and the skipped-tail
// waste term into the stats.
func (t *Trainer) fillSyncStats(stats *Stats, es *epochSync, skipped int) {
	stats.SkippedImages = skipped
	if skipped > 0 {
		var perImage float64
		for _, c := range t.replicas[0].ConvLayers() {
			spec := c.Spec()
			perImage += float64(spec.FlopsFP() + spec.FlopsBPInput() + spec.FlopsBPWeights())
		}
		stats.SkippedConvFlops = perImage * float64(skipped)
		t.coord.Instant("epoch", "skipped", "", float64(skipped))
	}
	stats.AllReduceMethod = es.method
	stats.AllReduceSeconds = es.seconds
	stats.SparseSyncs = es.sparse
	stats.MeanDeltaDensity = -1
	if es.densityN > 0 {
		stats.MeanDeltaDensity = es.densitySum / float64(es.densityN)
	}
	stats.WireBytes = es.wire
	stats.Rechunks = es.rechunks
	stats.StalenessMax = es.stalenessMax
}

func maxShare(shares []int) int {
	m := 0
	for _, s := range shares {
		if s > m {
			m = s
		}
	}
	return m
}

// convAccounting fills the epoch's sparsity map and work rates (Eq. 9/10)
// and, when a tracer is bound, emits the epoch accounting events the
// goodput-waste analyzer consumes and refreshes the live sparsity band.
func (t *Trainer) convAccounting(stats *Stats, images int, elapsed float64) {
	stats.ConvSparsity = map[string]float64{}
	counts := map[string]int{}
	for _, net := range t.replicas {
		for _, c := range net.ConvLayers() {
			if s, ok := c.TakeSparsity(); ok {
				stats.ConvSparsity[c.Name()] += s
				counts[c.Name()]++
			}
		}
	}
	meanAll, layers := 0.0, 0
	for name, n := range counts {
		stats.ConvSparsity[name] /= float64(n)
		meanAll += stats.ConvSparsity[name]
		layers++
	}
	var denseFlops, usefulFlops float64
	for _, c := range t.replicas[0].ConvLayers() {
		spec := c.Spec()
		fp := float64(spec.FlopsFP()) * float64(images)
		bp := float64(spec.FlopsBPInput()+spec.FlopsBPWeights()) * float64(images)
		denseFlops += fp + bp
		s, ok := stats.ConvSparsity[c.Name()]
		if !ok {
			s = 0
		}
		usefulFlops += fp + bp*(1-s)
	}
	if elapsed > 0 {
		stats.ConvGFlops = denseFlops / elapsed / 1e9
		stats.ConvGoodputGFlops = usefulFlops / elapsed / 1e9
	}
	if t.rec == nil {
		return
	}
	if layers > 0 {
		t.rec.SetBand(plan.Band(meanAll / float64(layers)))
	}
	t.coord.Instant("epoch", "epoch", "", float64(images))
	for name, s := range stats.ConvSparsity {
		t.coord.Instant("sparsity", "sparsity/"+name, name, s)
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Replica returns replica i's network (replica 0 is the canonical model
// after a sync).
func (t *Trainer) Replica(i int) *nn.Network { return t.replicas[i] }

// Syncs returns the total number of all-reduce rounds performed.
func (t *Trainer) Syncs() int { return t.syncs }

func (t *Trainer) ensureBuffers(shard int) {
	in := t.replicas[0].InDims()
	out := t.replicas[0].OutDims()
	for _, st := range t.trainers {
		for len(st.inputs) < shard {
			st.inputs = append(st.inputs, tensor.New(in...))
			st.dlogits = append(st.dlogits, tensor.New(out...))
		}
	}
}
