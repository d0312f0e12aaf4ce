package unfoldgemm

import (
	"fmt"
	"sync"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/gemm"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfold"
)

// PackedKernel is the prepacked-operand flavour of unfold+GEMM: the weight
// matrix — the one operand that is constant across every image of a batch
// and across training steps until the optimizer writes it — is packed once
// into gemm panel layout (gemm.PackedB) and reused until its version
// changes.
//
// To make the constant operand the packable (B) side of each GEMM, the two
// weight-consuming computations run in the dot-friendly orientation:
//
//	FP:    Oᵀ[pix×Nf]   = U · Wmatᵀ   (plan: PackBTrans(Wmat), O transposed back)
//	BP-EI: U_E[pix×taps] = EOᵀ · Wmat (plan: PackB(Wmat), EO transposed per image)
//
// Both are bit-identical reorderings of the baseline GEMMs (one k-ordered
// accumulator per element; float multiply commutes bitwise), so the engine
// is a drop-in candidate. BP-dW has no constant operand and delegates to
// the per-call packing inside gemm.SerialAccum/ParallelAccum.
//
// The pack cache is keyed by (data pointer, length, tensor version). A
// weight tensor with Ver == 0 is untracked and repacks on every batch call —
// still amortized across the images of the batch; nn layers bump their
// weight version on every optimizer step so training reuses packs across
// steps and repacks only after updates.
type PackedKernel struct {
	spec    conv.Spec
	workers int

	mu    sync.Mutex
	wdata []float32     // identity of the cached weight tensor's Data
	wver  uint64        // its Ver at pack time (0 = nothing cached)
	fp    *gemm.PackedB // Wmatᵀ panels (FP)
	bp    *gemm.PackedB // Wmat panels (BP-EI)

	// Precomputed probe span names: pack time lands on the miss span, the
	// hit span's Calls count gives the cache hit rate per layer spec.
	spanHit, spanMiss string
}

// NewPacked builds a prepacked-weights kernel for s at the given GEMM
// fan-out.
func NewPacked(s conv.Spec, workers int) *PackedKernel {
	s.MustValidate()
	if workers < 1 {
		workers = 1
	}
	return &PackedKernel{
		spec:     s,
		workers:  workers,
		spanHit:  "pack/" + s.String() + "/hit",
		spanMiss: "pack/" + s.String() + "/miss",
	}
}

// Name implements engine.Kernel.
func (k *PackedKernel) Name() string {
	if k.workers <= 1 {
		return "unfold-packed-gemm(serial)"
	}
	return fmt.Sprintf("unfold-packed-gemm(p=%d)", k.workers)
}

// Spec implements engine.Kernel.
func (k *PackedKernel) Spec() conv.Spec { return k.spec }

// Workers reports the GEMM fan-out.
func (k *PackedKernel) Workers() int { return k.workers }

// plans returns the packed forms of w, packing (and recording a miss span
// with the pack time) when the cache is stale and counting a hit span
// otherwise. Packs live on the Go heap — they are long-lived per-layer
// artifacts, not per-call scratch — so their lifetime is independent of any
// execution context's arena.
func (k *PackedKernel) plans(c *exec.Ctx, w *tensor.Tensor) (fp, bp *gemm.PackedB) {
	s := k.spec
	cols := unfold.Cols(s)
	wmat := gemm.Matrix{Rows: s.Nf, Cols: cols, Data: w.Data}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.fp != nil && w.Ver != 0 && k.wver == w.Ver &&
		len(k.wdata) == len(w.Data) && &k.wdata[0] == &w.Data[0] {
		c.Probe().Observe(k.spanHit, 0)
		return k.fp, k.bp
	}
	start := time.Now()
	k.fp = gemm.PackBTrans(&wmat, nil)
	k.bp = gemm.PackB(&wmat, nil)
	k.wdata = w.Data
	k.wver = w.Ver
	c.Probe().Observe(k.spanMiss, time.Since(start).Seconds())
	return k.fp, k.bp
}

// ForwardBatch computes Eq. 2 as Oᵀ = U·Wmatᵀ against the prepacked
// transposed weights, then scatters Oᵀ back to the [Nf][pix] output layout.
func (k *PackedKernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("unfoldgemm: ForwardBatch length mismatch")
	}
	s := k.spec
	rows, cols := unfold.Rows(s), unfold.Cols(s)
	conv.CheckWeights(s, w)
	pfp, _ := k.plans(c, w)
	ubuf := c.Get(rows * cols)
	u := gemm.Matrix{Rows: rows, Cols: cols, Data: ubuf}
	otbuf := c.Get(rows * s.Nf)
	ot := gemm.Matrix{Rows: rows, Cols: s.Nf, Data: otbuf}
	for i := range ins {
		unfold.Im2col(s, &u, ins[i])
		conv.CheckOutput(s, outs[i])
		if k.workers <= 1 {
			gemm.MulPacked(&ot, &u, pfp)
		} else {
			gemm.ParallelMulPacked(&ot, &u, pfp, k.workers)
		}
		transposeInto(outs[i].Data, otbuf, rows, s.Nf)
	}
	c.Put(otbuf)
	c.Put(ubuf)
}

// transposeInto writes dst[f*rows+p] = src[p*nf+f] — the Oᵀ → O scatter.
// O(pix·Nf) moves against the GEMM's O(pix·Nf·taps) flops.
func transposeInto(dst, src []float32, rows, nf int) {
	for p := 0; p < rows; p++ {
		srow := src[p*nf : (p+1)*nf]
		for f, v := range srow {
			if f*rows+p >= len(dst) {
				break
			}
			dst[f*rows+p] = v
		}
	}
}

// BackwardInputBatch computes Eq. 3 as U_E = EOᵀ·Wmat against the prepacked
// weights: EO is transposed into scratch per image (O(pix·Nf) moves), the
// GEMM consumes the packed panels, and col2im folds the result.
func (k *PackedKernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("unfoldgemm: BackwardInputBatch length mismatch")
	}
	s := k.spec
	rows, cols := unfold.Rows(s), unfold.Cols(s)
	conv.CheckWeights(s, w)
	_, pbp := k.plans(c, w)
	uebuf := c.Get(rows * cols)
	ue := gemm.Matrix{Rows: rows, Cols: cols, Data: uebuf}
	eotbuf := c.Get(rows * s.Nf)
	eot := gemm.Matrix{Rows: rows, Cols: s.Nf, Data: eotbuf}
	for i := range eos {
		conv.CheckOutput(s, eos[i])
		transposeInto(eotbuf, eos[i].Data, s.Nf, rows)
		if k.workers <= 1 {
			gemm.MulPacked(&ue, &eot, pbp)
		} else {
			gemm.ParallelMulPacked(&ue, &eot, pbp, k.workers)
		}
		unfold.Col2im(s, eis[i], &ue)
	}
	c.Put(eotbuf)
	c.Put(uebuf)
}

// BackwardWeightsBatch has no constant operand (both EO and U vary per
// image); it delegates to the per-call packed path of the base kernel.
func (k *PackedKernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	base := Kernel{spec: k.spec, workers: k.workers}
	base.BackwardWeightsBatch(c, dw, eos, ins)
}

// PackedGenerator returns an engine.Generator for the prepacked-weights
// technique at the given fan-out.
func PackedGenerator(workers int) engine.Generator {
	return engine.Generator{
		Name: "unfold-packed-gemm",
		New:  func(s conv.Spec) engine.Kernel { return NewPacked(s, workers) },
		// Padding/dilation flow through the generalized im2col for free,
		// but the pack cache holds one panel set for the whole weight
		// matrix — grouped specs would need per-group packs, so decline
		// them.
		Supports: func(s conv.Spec) bool { return s.G() == 1 },
	}
}
