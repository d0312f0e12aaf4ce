// Package spgcnn is a pure-Go implementation of spg-CNN, the CNN training
// optimization framework of "Optimizing CNNs on Multicores for
// Scalability, Performance and Goodput" (ASPLOS 2017).
//
// The package is a facade over the implementation packages; it exposes
// everything a downstream user needs:
//
//   - Convolution geometry and analysis: ConvSpec, Analyze, Region — the
//     paper's §3 AIT/sparsity characterization.
//   - Kernels: NewUnfoldGEMM (the Unfold+GEMM baseline, serial or
//     Parallel-GEMM), NewStencil (the §4.3 FP code generator), NewSparse
//     (the §4.2 CT-CSR BP kernel). All satisfy Kernel and compute
//     identical results.
//   - Scheduling: FPStrategies/BPStrategies/StrategyByName/NewExecCtx for
//     explicit deployment, NewAutoConv for §4.4's measure-and-pick
//     scheduler.
//   - Training: networks from text descriptions (ParseNet/BuildNet or the
//     built-in benchmark networks), the SGD Trainer, and the synthetic
//     datasets.
//   - Reproduction: Experiments() regenerates every table and figure of
//     the paper's evaluation; PaperMachine() is the calibrated model of
//     the paper's 16-core Xeon.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	spec := spgcnn.Square(36, 64, 3, 5, 1)     // CIFAR-10 layer 0
//	fmt.Println(spgcnn.Analyze(spec))          // AIT, unfold loss, region
//	ctx := spgcnn.NewCtx(4)                    // workers + scratch arena
//	k := spgcnn.NewStencil(spec)               // generate a kernel (stateless plan)
//	k.ForwardBatch(ctx, outs, ins, weights)    // run a batch through the context
package spgcnn

import (
	"spgcnn/internal/ait"
	"spgcnn/internal/bench"
	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/data"
	"spgcnn/internal/dataparallel"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/metrics"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/obs"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/serve"
	"spgcnn/internal/serve/loadgen"
	"spgcnn/internal/spkernel"
	"spgcnn/internal/stencil"
	"spgcnn/internal/tensor"
	"spgcnn/internal/trace"
	"spgcnn/internal/unfoldgemm"
)

// Geometry and tensors.

// ConvSpec is the convolution 5-tuple ⟨Nf, Fy, Fx, sy, sx⟩ plus input
// geometry (paper §2.2).
type ConvSpec = conv.Spec

// Tensor is a dense row-major float32 array.
type Tensor = tensor.Tensor

// RNG is the deterministic random generator used throughout.
type RNG = rng.RNG

// Square builds a square-geometry spec (N, Nf, Nc, F, stride) — the form
// the paper's tables use.
func Square(n, nf, nc, f, stride int) ConvSpec { return conv.Square(n, nf, nc, f, stride) }

// NewTensor allocates a zero-filled tensor.
func NewTensor(dims ...int) *Tensor { return tensor.New(dims...) }

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NewInput, NewWeights and NewOutput allocate correctly-shaped tensors for
// a spec ([Nc][Ny][Nx], [Nf][Nc][Fy][Fx], [Nf][OutY][OutX]).
func NewInput(s ConvSpec) *Tensor   { return conv.NewInput(s) }
func NewWeights(s ConvSpec) *Tensor { return conv.NewWeights(s) }
func NewOutput(s ConvSpec) *Tensor  { return conv.NewOutput(s) }

// Characterization (paper §3).

// Analysis is a convolution's static characterization: intrinsic AIT,
// post-unfolding AIT, the ratio r, and its Fig. 1 regions.
type Analysis = ait.Analysis

// Region is a cell of the Fig. 1 design space.
type Region = ait.Region

// Analyze computes the full characterization of a spec.
func Analyze(s ConvSpec) Analysis { return ait.Analyze(s) }

// Classify places a convolution with the given gradient sparsity in its
// Fig. 1 region.
func Classify(s ConvSpec, sparsity float64) Region { return ait.Classify(s, sparsity) }

// Phase identifies one of the three GEMMs of a training step (FP, the
// input-error gradient, the delta-weights).
type Phase = ait.Phase

// The training phases.
const (
	FP        Phase = ait.FP
	BPInput   Phase = ait.BPInput
	BPWeights Phase = ait.BPWeights
)

// Execution contexts (batch-first execution seam).

// Ctx is the execution context every kernel runs under: a worker count, a
// size-classed scratch arena, and an instrumentation probe. One Ctx is
// typically shared across every layer of a network so scratch buffers are
// reused across kernels and training steps.
type Ctx = exec.Ctx

// Probe is the instrumentation sink carried by a Ctx: named timing spans
// and the §4.4 scheduler's deployment decisions.
type Probe = exec.Probe

// Arena is the size-classed scratch pool carried by a Ctx.
type Arena = tensor.Arena

// ArenaStats is an arena's cumulative acquisition/reuse counters.
type ArenaStats = tensor.ArenaStats

// NewCtx builds an execution context with the given worker count (minimum
// 1), a fresh arena and a fresh probe.
func NewCtx(workers int) *Ctx { return exec.New(workers) }

// Kernels (paper §4).

// Kernel executes the three convolution computations of one training step
// (Eqs. 2–4) over a batch, under an explicit execution context. Kernels are
// stateless plans and safe for concurrent use.
type Kernel = engine.Kernel

// NewUnfoldGEMM builds an Unfold+GEMM kernel (§2.3): workers <= 1 gives
// the single-threaded GEMM, workers > 1 the Parallel-GEMM baseline.
func NewUnfoldGEMM(s ConvSpec, workers int) Kernel { return unfoldgemm.New(s, workers) }

// NewStencil generates a Stencil-Kernel (§4.3) with the register tile and
// cache schedule chosen by the basic-block/schedule generators.
func NewStencil(s ConvSpec) Kernel { return stencil.New(s) }

// NewSparse generates a Sparse-Kernel (§4.2). tileWidth <= 0 selects the
// default CT-CSR column-tile width.
func NewSparse(s ConvSpec, tileWidth int) Kernel { return spkernel.New(s, tileWidth) }

// SparseNonZeroFlops returns the useful flop count of one sparse BP
// computation when the error gradient has nnz non-zeros — the numerator of
// the paper's goodput (Eq. 9).
func SparseNonZeroFlops(s ConvSpec, nnz int) int64 { return spkernel.NonZeroFlops(s, nnz) }

// Scheduling (paper §4.1, §4.4).

// Strategy couples a kernel generator with a batch schedule.
type Strategy = core.Strategy

// Exec executes one layer phase over batches according to a strategy.
type Exec = core.Exec

// AutoConv is the layer executor: it asks a planner for a strategy per
// phase, deploys it, and re-checks BP periodically.
type AutoConv = core.AutoConv

// FPStrategies and BPStrategies return the paper's candidate sets.
func FPStrategies(workers int) []Strategy { return core.FPStrategies(workers) }
func BPStrategies(workers int) []Strategy { return core.BPStrategies(workers) }

// StrategyByName resolves a strategy name from either candidate set (or
// the reference fallback) at the given worker count.
func StrategyByName(name string, workers int) (Strategy, bool) {
	return core.StrategyByName(name, workers)
}

// NewExecCtx instantiates a strategy for a spec under a shared execution
// context.
func NewExecCtx(st Strategy, s ConvSpec, c *Ctx) *Exec { return core.NewExecCtx(st, s, c) }

// NewAutoConv builds the §4.4 auto-tuning scheduler for one layer, under a
// private context and a fresh planner.
func NewAutoConv(s ConvSpec, workers int) *AutoConv {
	return core.NewAutoConv(s, exec.New(workers), plan.New(plan.Options{}))
}

// Planning (the §4.4 scheduler promoted to a subsystem).

// Planner is the strategy-selection subsystem: an analytical model-first
// pass prunes dominated candidates, measured tuning picks among the
// survivors, and verdicts are cached in memory (shared across layers and
// replicas, concurrent requests single-flighted) and persistently (a
// schema-versioned, host-keyed plan cache file).
type Planner = plan.Planner

// PlannerOptions configures a Planner; the zero value is fully usable.
type PlannerOptions = plan.Options

// PlannerStats are a planner's cumulative counters (cache hits/misses,
// measurement passes, model-pruned candidates, model-vs-measured
// agreement, single-flight waits).
type PlannerStats = plan.Stats

// PlanKey identifies one cached verdict: host fingerprint, geometry,
// worker count, phase and sparsity band.
type PlanKey = plan.Key

// PlanEntry is one cached verdict with its measurement table and the model
// pass that preceded it.
type PlanEntry = plan.Entry

// PlanSchemaVersion stamps plan-cache files; loading a file written under
// a different schema fails instead of misreading.
const PlanSchemaVersion = plan.SchemaVersion

// NewPlanner builds a strategy planner. Thread one through
// BuildOptions.Planner (or share one via NewDataParallelFromDef) so
// same-geometry layers tune once; persist it across runs with its
// SaveFile/LoadFile methods.
func NewPlanner(opts PlannerOptions) *Planner { return plan.New(opts) }

// BindPlannerMetrics exports a planner's counters into a metrics registry.
func BindPlannerMetrics(p *Planner, r *MetricsRegistry) { metrics.BindPlanner(p, r) }

// Training substrate.

// Network is a stack of layers with preallocated batch storage.
type Network = nn.Network

// Trainer runs minibatch SGD: Step is one step, TrainEpoch a shuffled pass
// of them.
type Trainer = nn.Trainer

// Dataset is the trainer's data source.
type Dataset = nn.Dataset

// TrainEpochStats reports one training epoch (loss, accuracy, throughput,
// per-layer gradient sparsity, dense and goodput conv work rates).
type TrainEpochStats = nn.EpochStats

// NetDef is a parsed network description.
type NetDef = netdef.NetDef

// BuildOptions controls network construction.
type BuildOptions = netdef.BuildOptions

// ParseNet parses a prototxt-style network description.
func ParseNet(src string) (*NetDef, error) { return netdef.Parse(src) }

// BuildNet constructs a runnable network from a parsed description.
func BuildNet(def *NetDef, opts BuildOptions) (*Network, error) { return netdef.Build(def, opts) }

// NewTrainer builds an SGD trainer.
func NewTrainer(net *Network, lr float32, batch int) *Trainer {
	return nn.NewTrainer(net, lr, batch)
}

// Data-parallel training (the cluster context of the paper's §1/§6).

// DataParallelConfig tunes a synchronous data-parallel run.
type DataParallelConfig = dataparallel.Config

// DataParallelTrainer coordinates model replicas — each a Trainer — with
// periodic parameter averaging. One replica is the plain Trainer's
// TrainEpoch, run inline.
type DataParallelTrainer = dataparallel.Trainer

// NewDataParallel builds a data-parallel trainer; build must return
// identically-initialized replicas (same seed).
func NewDataParallel(build func(replica int) *Network, cfg DataParallelConfig) (*DataParallelTrainer, error) {
	return dataparallel.New(build, cfg)
}

// NewDataParallelFromDef builds a data-parallel trainer from one network
// description, with every replica sharing a single strategy planner: an
// N-replica trainer pays for one tuning pass per distinct geometry, not N.
func NewDataParallelFromDef(def *NetDef, opts BuildOptions, cfg DataParallelConfig) (*DataParallelTrainer, error) {
	return dataparallel.NewFromDef(def, opts, cfg)
}

// AllReduceMethod selects the reduction schedule of the parameter sync.
type AllReduceMethod = dataparallel.Method

// Reduction schedules and sparse-exchange modes of the data-parallel
// reduction subsystem.
const (
	AllReduceFlat = dataparallel.MethodFlat
	AllReduceRing = dataparallel.MethodRing
	AllReduceTree = dataparallel.MethodTree
	AllReduceAuto = dataparallel.MethodAuto

	SparseSyncOff   = dataparallel.SparseOff
	SparseSyncAuto  = dataparallel.SparseAuto
	SparseSyncForce = dataparallel.SparseForce
)

// ParseAllReduceMethod validates an -allreduce flag value.
func ParseAllReduceMethod(s string) (AllReduceMethod, error) { return dataparallel.ParseMethod(s) }

// ParseSparseSyncMode validates a -sparse-sync flag value.
func ParseSparseSyncMode(s string) (string, error) { return dataparallel.ParseSparseMode(s) }

// Built-in benchmark network descriptions (Table 2 geometries).
const (
	MNISTNet       = netdef.MNISTNet
	CIFARNet       = netdef.CIFARNet
	ImageNet100Net = netdef.ImageNet100Net
)

// Synthetic benchmark datasets (see DESIGN.md §2 on the substitution for
// the real image sets).
func MNISTData(n int) Dataset       { return data.MNIST(n) }
func CIFARData(n int) Dataset       { return data.CIFAR(n) }
func ImageNet100Data(n int) Dataset { return data.ImageNet100(n) }

// Reproduction harness.

// Experiment regenerates one table or figure of the paper.
type Experiment = bench.Experiment

// ExperimentOptions configures an experiment run ("quick" or "full").
type ExperimentOptions = bench.Options

// ResultTable is a rendered experiment result.
type ResultTable = bench.Table

// Experiments returns every regenerable artifact, in paper order.
func Experiments() []Experiment { return bench.Experiments() }

// LookupExperiment finds an experiment by ID (e.g. "fig4e").
func LookupExperiment(id string) (Experiment, error) { return bench.Lookup(id) }

// PaperMachine returns the analytical model of the paper's 16-core Xeon
// E5-2650 testbed (the documented hardware substitution, DESIGN.md §2).
func PaperMachine() machine.Machine { return machine.Paper() }

// Observability (metrics registry, live export, bench baselines).

// MetricsRegistry holds counters, gauges, latency histograms and the
// hierarchical layer/phase/strategy span tree, and renders itself in
// Prometheus text exposition format.
type MetricsRegistry = metrics.Registry

// MetricsServer is a live metrics endpoint: /metrics (Prometheus text
// format), /healthz, and net/http/pprof under /debug/pprof/.
type MetricsServer = metrics.Server

// MetricsSpanStats is one span's aggregate (calls, total seconds, min,
// max).
type MetricsSpanStats = metrics.SpanStats

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// BindMetrics attaches a registry to an execution context: every probe
// span and scheduler choice is mirrored live into the registry, and the
// context's worker count and arena statistics are exported as gauges.
func BindMetrics(c *Ctx, r *MetricsRegistry) { metrics.Bind(c, r) }

// ServeMetrics starts the metrics endpoint on addr (":0" picks a free
// port; query the result's Addr or URL). Close the returned server when
// done.
func ServeMetrics(addr string, r *MetricsRegistry) (*MetricsServer, error) {
	return metrics.Serve(addr, r)
}

// BindRuntimeMetrics exports Go runtime health telemetry (GC pause and
// scheduler-latency quantiles, GC cycles, live heap, goroutines,
// GOMAXPROCS) as spg_runtime_* series, sampled at render time.
func BindRuntimeMetrics(r *MetricsRegistry) { metrics.BindRuntime(r) }

// Plan-drift observatory (continuous model-vs-measured agreement tracking
// with automatic re-tune triggers).

// Observatory tracks per-layer/per-phase EWMA agreement between the
// planner's analytical predictions and measured span times, and fires
// drift events when a deployed strategy departs from its own baseline.
// It implements the probe sink seam: attach with Ctx.Probe().AddSink.
type Observatory = obs.Observatory

// ObservatoryOptions configures an Observatory; the zero value is usable.
type ObservatoryOptions = obs.Options

// DriftEvent is one fired drift alarm.
type DriftEvent = obs.DriftEvent

// DriftCoupler turns drift events into re-tune actions: plan-cache
// invalidation immediately, layer re-tunes when Apply runs on the
// training goroutine.
type DriftCoupler = obs.Coupler

// DriftReport is the observatory's exportable agreement report, with
// per-series rows and per-Fig.1-region rollups.
type DriftReport = obs.Report

// DriftRow is one (layer, phase) series of a drift report.
type DriftRow = obs.Row

// DriftRegionRow is a drift report's per-Fig.1-region rollup row.
type DriftRegionRow = obs.RegionRow

// DriftReportSchemaVersion stamps drift report files.
const DriftReportSchemaVersion = obs.ReportSchemaVersion

// NewObservatory builds a drift observatory.
func NewObservatory(o ObservatoryOptions) *Observatory { return obs.New(o) }

// NewDriftCoupler builds the re-tune trigger for a planner; pass its
// OnDrift as ObservatoryOptions.OnDrift.
func NewDriftCoupler(p *Planner) *DriftCoupler { return obs.NewCoupler(p) }

// ReadDriftReportFile reads and schema-validates a drift report.
func ReadDriftReportFile(path string) (DriftReport, error) { return obs.ReadReportFile(path) }

// RegisterObservatoryLayers declares every convolution layer of a network
// with the observatory (geometry for predictions) and, when cp is
// non-nil, with the coupler (re-tune fan-out). Call once per network —
// data-parallel replicas register every replica with the coupler but
// share one observatory stream per layer.
func RegisterObservatoryLayers(o *Observatory, cp *DriftCoupler, net *Network) {
	if o == nil || net == nil {
		return
	}
	for _, c := range net.ConvLayers() {
		o.RegisterLayer(c.Name(), c.Spec())
		if cp != nil {
			cp.Register(c)
		}
	}
}

// BenchSchemaVersion is the schema stamp of machine-readable bench
// reports (BENCH_<exp>.json).
const BenchSchemaVersion = bench.SchemaVersion

// BenchReport is the machine-readable form of one experiment run.
type BenchReport = bench.Report

// NewBenchReport assembles the report for one experiment run.
func NewBenchReport(e Experiment, o ExperimentOptions, tables []ResultTable) BenchReport {
	return bench.NewReport(e, o, tables)
}

// LoadBenchReport reads and schema-validates a BENCH_<exp>.json file.
func LoadBenchReport(path string) (*BenchReport, error) { return bench.LoadReport(path) }

// CompareBenchReports checks a fresh report against a committed baseline:
// structure strictly, numbers within tol for deterministic experiment
// kinds, finiteness and sign for measured ones.
func CompareBenchReports(base, cur *BenchReport, tol float64) error {
	return bench.Compare(base, cur, tol)
}

// HostFingerprint describes the machine a report was generated on.
type HostFingerprint = machine.Host

// HostInfo fingerprints this host.
func HostInfo() HostFingerprint { return machine.HostInfo() }

// Execution tracing (per-step timelines, Perfetto export, straggler and
// goodput-waste attribution).

// TraceRecorder is the low-overhead per-worker event recorder: every
// layer/phase/strategy execution, planner decision, arena growth and
// all-reduce lands on a timeline stamped with step, replica, worker and
// sparsity band. Export with its WriteFile method (Chrome/Perfetto
// trace-event JSON) and analyze with cmd/spg-trace.
type TraceRecorder = trace.Recorder

// TraceEmitter stamps events for one (replica, worker) identity; obtain
// one from TraceRecorder.Emitter. All methods are nil-safe, so call sites
// stay wired when tracing is off.
type TraceEmitter = trace.Emitter

// TraceOptions configures a recorder; the zero value is full capture with
// default bounds.
type TraceOptions = trace.Options

// TraceMode selects full capture or the bounded flight-recorder ring.
type TraceMode = trace.Mode

// The capture modes.
const (
	TraceFull = trace.Full
	TraceRing = trace.Ring
)

// TraceCapture is a recorder's exported snapshot: events, layer flop
// metadata and buffer accounting.
type TraceCapture = trace.Capture

// TraceStats is a recorder's buffer accounting (emitted, buffered,
// overwritten, dropped).
type TraceStats = trace.Stats

// NewTraceRecorder builds a recorder.
func NewTraceRecorder(opts TraceOptions) *TraceRecorder { return trace.New(opts) }

// ParseTraceMode parses "full" or "ring".
func ParseTraceMode(s string) (TraceMode, error) { return trace.ParseMode(s) }

// AttachTraceCtx streams an execution context's probe (layer, kernel and
// tune spans, scheduler choices) and arena growth onto the timeline under
// the given replica identity. The metrics bridge, if bound, keeps
// observing — sinks fan out.
func AttachTraceCtx(rec *TraceRecorder, c *Ctx, replica int) *TraceEmitter {
	return trace.Attach(rec, c, replica)
}

// BindTraceMetrics exports a recorder's buffer accounting (emitted,
// buffered, overwritten, dropped, used ratio) as live gauges.
func BindTraceMetrics(rec *TraceRecorder, r *MetricsRegistry) { metrics.BindTrace(rec, r) }

// Inference serving.

// ServeModel is a loaded, forward-only network replicated across batch
// workers with one shared read-only parameter set.
type ServeModel = serve.Model

// ServeModelConfig controls replica count, batch-size buckets and
// per-bucket strategy planning of a serving model.
type ServeModelConfig = serve.ModelConfig

// ServeConfig configures the dynamic-batching server around a model.
type ServeConfig = serve.Config

// Server is the dynamic-batching inference server.
type Server = serve.Server

// ServeStats is a snapshot of the server's admission and goodput counters.
type ServeStats = serve.Stats

// NewServeModel builds the forward-only replica set for a description.
func NewServeModel(def *NetDef, cfg ServeModelConfig) (*ServeModel, error) {
	return serve.NewModel(def, cfg)
}

// NewServer starts batch workers over a model and returns the server.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// DefaultServeBuckets returns the power-of-two batch buckets up to maxBatch.
func DefaultServeBuckets(maxBatch int) []int { return serve.DefaultBuckets(maxBatch) }

// LoadConfig configures one load-generation run against a serving endpoint.
type LoadConfig = loadgen.Config

// LoadResult aggregates a load run: throughput, tail latency, batch mix.
type LoadResult = loadgen.Result

// RunLoad drives a serving endpoint with closed- or open-loop traffic.
func RunLoad(cfg LoadConfig) (*LoadResult, error) { return loadgen.Run(cfg) }

// DataParallelStats reports one data-parallel epoch: TrainEpochStats plus
// the fleet's steps, syncs, wire traffic and the per-replica step-time
// min/max/mean and barrier-wait attribution.
type DataParallelStats = dataparallel.Stats

// DataParallelReplicaStats is one replica's step-time summary.
type DataParallelReplicaStats = dataparallel.ReplicaStats
