package gemm

import "spgcnn/internal/par"

// Prepacked-operand plans: when one GEMM operand is constant across many
// calls — the weight matrix during a forward/backward pass over a batch, or
// across whole training steps until the optimizer updates it — the panel
// pack (packed.go) can be hoisted out of the per-call path entirely. A
// PackedB is that hoisted artifact: B (or Bᵀ) packed once, multiplied many
// times.

// PackedB holds one GEMM operand packed into k-interleaved column panels,
// ready for MulPacked against any conforming A.
type PackedB struct {
	K, N   int // logical operand shape: B is K×N
	panels []float32
}

// PackB packs B (K×N) for C = A·B. The pack is a streaming copy
// (copyStrip8) costing O(K·N).
func PackB(b *Matrix) *PackedB {
	p := &PackedB{K: b.Rows, N: b.Cols, panels: make([]float32, b.Rows*padUp(b.Cols))}
	packPanels(p.panels, b)
	return p
}

// PackBTrans packs srcᵀ for C = A·srcᵀ without materializing the transpose
// (src is N×K; the logical operand is K×N). Panels gather eight consecutive
// src rows along k (kern.Gather8).
func PackBTrans(src *Matrix) *PackedB {
	p := &PackedB{K: src.Cols, N: src.Rows, panels: make([]float32, src.Cols*padUp(src.Rows))}
	packPanelsTrans(p.panels, src)
	return p
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
