package serve

import (
	"fmt"
	"io"
	"sort"

	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/tensor"
)

// DefaultBuckets returns the power-of-two batch-size buckets up to and
// including maxBatch (rounded up): the buckets the planner keys per-bucket
// strategy verdicts under and ragged batches pad to.
func DefaultBuckets(maxBatch int) []int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	var out []int
	for b := 1; ; b *= 2 {
		out = append(out, b)
		if b >= maxBatch {
			return out
		}
	}
}

// ModelConfig controls how a parsed description becomes a serving model.
type ModelConfig struct {
	// Replicas is the number of forward-only network replicas — one per
	// batch-worker goroutine, each with its own exec.Ctx arena, all
	// sharing one read-only parameter set (default 1).
	Replicas int
	// Threads is the worker count of each replica's execution context
	// (default 1): intra-batch parallelism, orthogonal to Replicas.
	Threads int
	// Buckets are the batch-size buckets (sorted internally); ragged
	// batches pad up to the smallest fitting bucket. Empty means
	// DefaultBuckets of the server's MaxBatch.
	Buckets []int
	// Planner owns per-bucket strategy selection, shared by every replica
	// (nil: a fresh plan.Planner, so replicas still share verdicts).
	Planner core.Planner
	// FixedStrategy pins every conv layer to one strategy instead of
	// planner-driven per-bucket selection.
	FixedStrategy *core.Strategy
	// Seed seeds the (soon overwritten or shared) weight initialization.
	Seed uint64
}

// Model is a loaded, forward-only network replicated across batch workers.
// Replica networks share parameter tensors — one weight set in memory, one
// packed/blocked weight-cache entry per kernel — while owning their
// activations, so worker i may run Forward on replica i concurrently with
// every other worker.
type Model struct {
	def      *netdef.NetDef
	replicas []*nn.Network
	ctxs     []*exec.Ctx
	buckets  []int
	pad      []*tensor.Tensor   // shared zero inputs for ragged-batch padding
	padded   [][]*tensor.Tensor // per replica: the reused padded-batch slice
	inDims   []int
	inLen    int
	outLen   int
	flops    int64 // dense forward flops per image (conv + fc)
}

// NewModel builds the replica set for a parsed description. Weights start
// at seeded initialization; call LoadWeights to restore a checkpoint.
func NewModel(def *netdef.NetDef, cfg ModelConfig) (*Model, error) {
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	buckets := append([]int(nil), cfg.Buckets...)
	if len(buckets) == 0 {
		buckets = DefaultBuckets(1)
	}
	sort.Ints(buckets)
	for _, b := range buckets {
		if b < 1 {
			return nil, fmt.Errorf("serve: bucket %d is not a batch size", b)
		}
	}
	planner := cfg.Planner
	if planner == nil {
		planner = plan.New(plan.Options{})
	}
	m := &Model{def: def, buckets: buckets}
	for i := 0; i < replicas; i++ {
		ctx := exec.New(threads)
		net, err := netdef.Build(def, netdef.BuildOptions{
			Ctx:           ctx,
			Planner:       planner,
			FixedStrategy: cfg.FixedStrategy,
			Seed:          cfg.Seed,
			Inference:     true,
			InferBuckets:  buckets,
		})
		if err != nil {
			return nil, err
		}
		if i > 0 {
			if err := net.ShareParameters(m.replicas[0]); err != nil {
				return nil, err
			}
		}
		net.EnsureBatch(buckets[len(buckets)-1])
		m.replicas = append(m.replicas, net)
		m.ctxs = append(m.ctxs, ctx)
	}
	m.inDims = m.replicas[0].InDims()
	m.inLen = 1
	for _, d := range m.inDims {
		m.inLen *= d
	}
	m.outLen = 1
	for _, d := range m.replicas[0].OutDims() {
		m.outLen *= d
	}
	for _, l := range m.replicas[0].Layers() {
		switch t := l.(type) {
		case *nn.Conv:
			m.flops += t.Spec().FlopsFP()
		case *nn.FC:
			in, out := 1, 1
			for _, d := range t.InDims() {
				in *= d
			}
			for _, d := range t.OutDims() {
				out *= d
			}
			m.flops += int64(2 * in * out)
		}
	}
	maxBucket := buckets[len(buckets)-1]
	m.pad = make([]*tensor.Tensor, maxBucket)
	for i := range m.pad {
		m.pad[i] = tensor.New(m.inDims...)
	}
	m.padded = make([][]*tensor.Tensor, replicas)
	for i := range m.padded {
		m.padded[i] = make([]*tensor.Tensor, 0, maxBucket)
	}
	return m, nil
}

// LoadWeights restores a checkpoint written by nn's Save into every
// replica at once (the parameter set is shared). Versions bump so any
// packed-operand cache keyed to the initialization weights invalidates.
func (m *Model) LoadWeights(r io.Reader) error {
	if err := m.replicas[0].Load(r); err != nil {
		return err
	}
	for _, p := range m.replicas[0].Parameters() {
		p.Tensor.Bump()
	}
	return nil
}

// Def returns the parsed description the model was built from.
func (m *Model) Def() *netdef.NetDef { return m.def }

// Replicas returns how many independent batch workers the model supports.
func (m *Model) Replicas() int { return len(m.replicas) }

// Ctx returns replica i's execution context (metrics/trace binding).
func (m *Model) Ctx(i int) *exec.Ctx { return m.ctxs[i] }

// Buckets returns the configured batch-size buckets, ascending.
func (m *Model) Buckets() []int { return m.buckets }

// ConvLayers returns replica 0's convolution layers. Replicas share
// geometry and planner verdicts, so replica 0 speaks for the deployment:
// per-bucket strategies via Conv.PlannedBuckets, specs for observability
// registration.
func (m *Model) ConvLayers() []*nn.Conv { return m.replicas[0].ConvLayers() }

// InDims returns the per-image input shape; InLen its flat length.
func (m *Model) InDims() []int { return m.inDims }

// InLen returns the flat per-image input length.
func (m *Model) InLen() int { return m.inLen }

// OutLen returns the flat per-image output (logits) length.
func (m *Model) OutLen() int { return m.outLen }

// FlopsPerImage returns the dense forward flop count of one image — the
// unit of the serving goodput series (padded rows spend it wastefully).
func (m *Model) FlopsPerImage() int64 { return m.flops }

// bucketFor returns the smallest bucket that fits n, or n when none does.
func (m *Model) bucketFor(n int) int {
	for _, b := range m.buckets {
		if b >= n {
			return b
		}
	}
	return n
}

// InferBatch runs ins through replica `replica`, padding the batch with
// shared zero images up to the bucket size, and returns a copy of each
// REAL input's logits (padding rows are dropped) plus the bucket used.
// Each replica may run one InferBatch at a time; distinct replicas run
// concurrently.
func (m *Model) InferBatch(replica int, ins []*tensor.Tensor) ([][]float32, int) {
	if len(ins) == 0 {
		return nil, 0
	}
	outs := make([][]float32, len(ins))
	for i := range outs {
		outs[i] = make([]float32, m.outLen)
	}
	return outs, m.inferInto(replica, ins, outs)
}

// inferInto is InferBatch copying each real input's logits into the
// caller's outs[i] (OutLen values each). Outside the forward pass it
// allocates nothing.
func (m *Model) inferInto(replica int, ins []*tensor.Tensor, outs [][]float32) (bucket int) {
	bucket = m.bucketFor(len(ins))
	batch := ins
	if bucket > len(ins) {
		batch = append(m.padded[replica][:0], ins...)
		batch = append(batch, m.pad[:bucket-len(ins)]...)
		m.padded[replica] = batch
	}
	logits := m.replicas[replica].Forward(batch)
	for i := range ins {
		copy(outs[i], logits[i].Data)
	}
	return bucket
}

// Warmup runs every bucket once on every replica, so per-bucket strategy
// planning (replica 0 measures, the rest deploy from the shared planner's
// cache) and activation allocation happen before the first request.
func (m *Model) Warmup() {
	for r := range m.replicas {
		for _, b := range m.buckets {
			m.InferBatch(r, m.pad[:b])
		}
	}
}
