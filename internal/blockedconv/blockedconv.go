// Package blockedconv implements direct forward convolution on the
// channel-blocked NCHW8 layout (tensor/blocked.go; Georganas et al.,
// PAPERS.md). Where the prepacked unfold+GEMM engine reaches the 8-wide
// micro-kernel by copying — im2col per image, PackB per weight version —
// the blocked layout makes both copies structural:
//
//   - the blocked weight tensor [Fo][Cb][Fy][Fx][8c][8f] is, for fixed
//     (fo, cb, ky), a contiguous k-interleaved panel in exactly
//     kern.Dot8's bp format (k running over (kx, c-lane));
//   - the matching A operand is a contiguous slice of the blocked input
//     row at (cb, oy·Sy+ky): Fx·8 consecutive floats, stride handled by
//     offsetting the slice start by ox·Sx·8.
//
// FP is therefore one kern.Dot8 call per (pixel, fo, cb, ky) with zero
// packing, gathering or unfolding. The weight blocking itself is cached
// per tensor.Ver exactly like the packed engine's panel plans, so its
// cost amortizes across the batch and across training steps.
//
// The engine accumulates each output block in memory over (cb, ky) with
// the micro-kernel reducing (kx, c-lane) — a reassociation of the
// reference (c, ky, kx) order, bit-compatible within the differential
// harness's ULP budget (like the stencil engine's register tiling).
// Backward passes delegate to the serial unfold+GEMM kernel: this engine
// is an FP candidate, deployed per phase by the planner.
package blockedconv

import (
	"sync"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// Kernel is a blocked-layout convolution plan for one spec. Safe for
// concurrent use: the weight-block cache is mutex-guarded and all other
// state is per-call arena scratch.
type Kernel struct {
	spec conv.Spec
	bp   *unfoldgemm.Kernel // BP delegate (serial; batchpar supplies the fan-out)

	mu    sync.Mutex
	wdata []float32      // identity of the cached weight tensor's Data
	wver  uint64         // its Ver at blocking time
	wb    *tensor.Tensor // blocked [Fo][Cb][Fy][Fx][8c][8f] panels

	hit, miss exec.Event
}

// New builds a blocked-convolution kernel for s.
func New(s conv.Spec) *Kernel {
	s.MustValidate()
	return &Kernel{
		spec: s,
		bp:   unfoldgemm.New(s, 1),
		hit:  exec.Event{Cat: "blockw", Name: "blockw/" + s.String() + "/hit"},
		miss: exec.Event{Cat: "blockw", Name: "blockw/" + s.String() + "/miss"},
	}
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string { return "blocked-conv" }

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// blockedWeights returns w in the blocked panel layout, re-blocking (and
// recording a miss span with the blocking time) when the per-Ver cache is
// stale and counting a hit span otherwise. Blocks live on the Go heap —
// long-lived per-layer artifacts, not per-call scratch — mirroring the
// packed engine's plan cache.
func (k *Kernel) blockedWeights(c *exec.Ctx, w *tensor.Tensor) *tensor.Tensor {
	conv.CheckWeights(k.spec, w)
	if w.Ver == 0 {
		// Untracked weights are never cached, so they must not go through
		// the shared block either: batch-parallel workers re-blocking into
		// it would overwrite what their neighbours are still reading.
		return tensor.BlockWeights(w)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.wb != nil && k.wver == w.Ver &&
		len(k.wdata) == len(w.Data) && &k.wdata[0] == &w.Data[0] {
		c.Probe().Record(k.hit)
		return k.wb
	}
	start := time.Now()
	if k.wb == nil {
		k.wb = tensor.BlockWeights(w)
	} else {
		tensor.BlockWeightsInto(k.wb, w)
	}
	k.wdata = w.Data
	k.wver = w.Ver
	c.Probe().Record(k.miss.Since(start))
	return k.wb
}

// ForwardBatch implements engine.Kernel at the canonical NCHW seam:
// inputs are blocked into arena scratch at ingest, the blocked FP runs,
// and outputs are un-blocked at egress. The two conversions are O(|I|+|O|)
// streaming moves against the O(|I|·Nf) compute.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("blockedconv: ForwardBatch length mismatch")
	}
	s := k.spec
	if !s.Plain() {
		// Generalized specs run the grouped/padded unfold path (the blocked
		// weight panels and Dot8 schedule are generated for plain
		// geometry only).
		k.bp.ForwardBatch(c, outs, ins, w)
		return
	}
	wb := k.blockedWeights(c, w)
	inb := c.GetTensorLayout(tensor.NCHW8, tensor.Blocks(s.Nc), s.Ny, s.Nx, tensor.Block)
	outb := c.GetTensorLayout(tensor.NCHW8, tensor.Blocks(s.Nf), s.OutY(), s.OutX(), tensor.Block)
	for i := range ins {
		conv.CheckInput(s, ins[i])
		conv.CheckOutput(s, outs[i])
		tensor.ToBlockedInto(inb, ins[i])
		forwardBlocked(s, outb, inb, wb)
		tensor.FromBlockedInto(outs[i], outb)
	}
	c.PutTensor(outb)
	c.PutTensor(inb)
}

// BackwardInputBatch implements engine.Kernel by delegating to the serial
// unfold+GEMM kernel (this engine is an FP specialist).
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	k.bp.BackwardInputBatch(c, eis, eos, w)
}

// BackwardWeightsBatch implements engine.Kernel via the same delegate.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	k.bp.BackwardWeightsBatch(c, dw, eos, ins)
}

// Generator returns an engine.Generator for the blocked-layout technique.
func Generator() engine.Generator {
	return engine.Generator{
		Name: "blocked-conv",
		New:  func(s conv.Spec) engine.Kernel { return New(s) },
	}
}
