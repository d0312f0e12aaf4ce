// Package spweight implements direct forward convolution over compressed
// pruned weights — the weight-sparse dual of the input-sparse CT-CSR
// engine (§5). Pruned networks carry filters whose entries are mostly
// exact zeros; dense engines burn a multiply-add on every one of them.
// This engine compresses each output feature's filter once per tensor.Ver
// into a flat CSR-over-taps plan (offset into the input plane + value for
// every nonzero weight) and runs FP as one saxpy row sweep per surviving
// tap. Work scales with weight density: at 95% weight sparsity the engine
// executes 5% of the dense flops.
//
// Bit-identity, not just tolerance: taps are enumerated in the reference
// (c, ky, kx) order per output feature, so every output accumulator
// receives the same additions in the same order as conv.ForwardRef minus
// terms whose weight is exactly zero. A zero weight's product is ±0, and
// since accumulators start at +0 and (+0)+(±0) = +0 under round-to-
// nearest, skipping those terms never changes a bit. The engine's FP is
// therefore tensor.Identical to the serial unfold+GEMM engine, and the
// package test pins exactly that.
//
// Backward passes delegate to the serial unfold+GEMM kernel; the planner
// deploys this engine per phase where its density-scaled model wins.
package spweight

import (
	"sync"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// csrPlan is the compressed form of one weight tensor: for output feature
// f, taps rowStart[f]..rowStart[f+1] hold the input-plane offset
// (c·Ny+ky)·Nx+kx and value of each nonzero weight, in (c, ky, kx) order.
type csrPlan struct {
	rowStart []int32
	off      []int32
	val      []float32
}

// Kernel is a sparse-weight convolution plan for one spec. Safe for
// concurrent use: the compressed-weight cache is mutex-guarded.
type Kernel struct {
	spec conv.Spec
	bp   *unfoldgemm.Kernel // BP delegate (serial; batchpar supplies the fan-out)

	mu    sync.Mutex
	wdata []float32 // identity of the cached weight tensor's Data
	wver  uint64    // its Ver at compression time
	plan  *csrPlan

	hit, miss exec.Event
}

var _ engine.Kernel = (*Kernel)(nil)

// New builds a sparse-weight kernel for s.
func New(s conv.Spec) *Kernel {
	s.MustValidate()
	return &Kernel{
		spec: s,
		bp:   unfoldgemm.New(s, 1),
		hit:  exec.Event{Cat: "spweight", Name: "spweight/" + s.String() + "/hit"},
		miss: exec.Event{Cat: "spweight", Name: "spweight/" + s.String() + "/miss"},
	}
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string { return "sparse-weight(csr)" }

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// compressed returns w's CSR-over-taps plan, recompressing (with a miss
// span carrying the compression time) when the per-Ver cache is stale.
func (k *Kernel) compressed(c *exec.Ctx, w *tensor.Tensor) *csrPlan {
	conv.CheckWeights(k.spec, w)
	if w.Ver == 0 {
		// Untracked weights are never cached, so they must not go through
		// the shared plan either: batch-parallel workers recompressing into
		// it would overwrite what their neighbours are still reading.
		return compress(k.spec, w, nil)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.plan != nil && k.wver == w.Ver &&
		len(k.wdata) == len(w.Data) && &k.wdata[0] == &w.Data[0] {
		c.Probe().Record(k.hit)
		return k.plan
	}
	start := time.Now()
	k.plan = compress(k.spec, w, k.plan)
	k.wdata = w.Data
	k.wver = w.Ver
	c.Probe().Record(k.miss.Since(start))
	return k.plan
}

// compress builds the tap plan for w, reusing old's storage when possible.
func compress(s conv.Spec, w *tensor.Tensor, old *csrPlan) *csrPlan {
	p := old
	if p == nil {
		p = &csrPlan{}
	}
	if cap(p.rowStart) >= s.Nf+1 {
		p.rowStart = p.rowStart[:0]
	} else {
		p.rowStart = make([]int32, 0, s.Nf+1)
	}
	p.off = p.off[:0]
	p.val = p.val[:0]
	wd := w.Data
	i := 0
	for f := 0; f < s.Nf; f++ {
		p.rowStart = append(p.rowStart, int32(len(p.val)))
		for c := 0; c < s.Nc; c++ {
			for ky := 0; ky < s.Fy; ky++ {
				for kx := 0; kx < s.Fx; kx++ {
					v := wd[i]
					i++
					if v == 0 {
						continue
					}
					p.off = append(p.off, int32((c*s.Ny+ky)*s.Nx+kx))
					p.val = append(p.val, v)
				}
			}
		}
	}
	p.rowStart = append(p.rowStart, int32(len(p.val)))
	return p
}

// ForwardBatch implements engine.Kernel.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("spweight: ForwardBatch length mismatch")
	}
	s := k.spec
	p := k.compressed(c, w)
	for i := range ins {
		conv.CheckInput(s, ins[i])
		conv.CheckOutput(s, outs[i])
		forwardCSR(s, p, outs[i], ins[i])
	}
}

// BackwardInputBatch implements engine.Kernel via the unfold+GEMM delegate
// (this engine is an FP specialist).
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	k.bp.BackwardInputBatch(c, eis, eos, w)
}

// BackwardWeightsBatch implements engine.Kernel via the same delegate.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	k.bp.BackwardWeightsBatch(c, dw, eos, ins)
}

// Generator returns an engine.Generator for the sparse-weight technique.
func Generator() engine.Generator {
	return engine.Generator{
		Name: "sparse-weight(csr)",
		New:  func(s conv.Spec) engine.Kernel { return New(s) },
		// The CSR-over-taps gather assumes plain geometry; decline
		// generalized specs so the planner prunes this candidate.
		Supports: engine.PlainOnly,
	}
}
