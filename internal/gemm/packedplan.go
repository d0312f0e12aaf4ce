package gemm

import "spgcnn/internal/par"

// Prepacked-operand plans: when one GEMM operand is constant across many
// calls — the weight matrix during a forward/backward pass over a batch, or
// across whole training steps until the optimizer updates it — the panel
// pack (packed.go) can be hoisted out of the per-call path entirely. A
// PackedB is that hoisted artifact: B (or Bᵀ) packed once, multiplied many
// times.
//
// Storage comes through the Allocator seam so callers can keep pack buffers
// inside the execution context's arena (exec.Ctx and tensor.Arena both
// satisfy Allocator); a nil Allocator falls back to the Go heap.

// Allocator is the scratch-storage seam: *exec.Ctx and *tensor.Arena both
// implement it.
type Allocator interface {
	Get(n int) []float32
	Put(buf []float32)
}

// PackedB holds one GEMM operand packed into k-interleaved column panels,
// ready for MulPacked against any conforming A.
type PackedB struct {
	K, N   int // logical operand shape: B is K×N
	panels []float32
	al     Allocator
}

// PackB packs B (K×N) for C = A·B. The pack is a streaming copy
// (copyStrip8) costing O(K·N).
func PackB(b *Matrix, al Allocator) *PackedB {
	p := &PackedB{K: b.Rows, N: b.Cols, al: al}
	p.panels = p.get(b.Rows * padUp(b.Cols))
	packPanels(p.panels, b)
	return p
}

// PackBTrans packs srcᵀ for C = A·srcᵀ without materializing the transpose
// (src is N×K; the logical operand is K×N). Panels gather eight consecutive
// src rows along k (gatherStrip8).
func PackBTrans(src *Matrix, al Allocator) *PackedB {
	p := &PackedB{K: src.Cols, N: src.Rows, al: al}
	p.panels = p.get(src.Cols * padUp(src.Rows))
	packPanelsTrans(p.panels, src)
	return p
}

func (p *PackedB) get(n int) []float32 {
	if p.al != nil {
		return p.al.Get(n)
	}
	return make([]float32, n)
}

// Release returns the panel storage to the allocator. The plan must not be
// used afterwards.
func (p *PackedB) Release() {
	if p.al != nil && p.panels != nil {
		p.al.Put(p.panels)
	}
	p.panels = nil
}

// Bytes reports the packed footprint (for pack-cache accounting and probes).
func (p *PackedB) Bytes() int { return 4 * len(p.panels) }

// MulPacked computes C = A·B from the prepacked operand. C is overwritten.
// Bit-identical to MulTransB/Naive ordering: one full-K accumulator per
// element, k increasing.
func MulPacked(c, a *Matrix, p *PackedB) {
	if a.Cols != p.K || c.Rows != a.Rows || c.Cols != p.N {
		panic("gemm: MulPacked dimension mismatch")
	}
	packedMulRange(c, a, p.panels, p.N, 0, a.Rows, false)
}

// ParallelMulPacked computes C = A·B from the prepacked operand with rows of
// C claimed dynamically (par.ForDynamic): rows write disjoint output and the
// packed panels are read-only, so guided chunking is safe and absorbs both
// the ragged tail and any straggling worker.
func ParallelMulPacked(c, a *Matrix, p *PackedB, workers int) {
	if a.Cols != p.K || c.Rows != a.Rows || c.Cols != p.N {
		panic("gemm: ParallelMulPacked dimension mismatch")
	}
	par.ForDynamic(a.Rows, workers, 1, func(lo, hi int) {
		packedMulRange(c, a, p.panels, p.N, lo, hi, false)
	})
}
