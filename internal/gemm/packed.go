package gemm

import "sync"

// Packed-operand SGEMM: the B operand is copied once into column panels of
// panelW columns, interleaved along K (panel element 8k+c holds B[k][j+c]),
// and the inner kernel (microDot8, microkernel.go) streams ONE packed panel
// against one A row — two slice advances per K step feeding eight
// register-resident accumulators. Classical packing (Goto & van de Geijn,
// the paper's [26]) buys contiguity; the interleaved layout additionally
// collapses the eight B-row streams of the dot-orientation kernel into a
// single stream, which is what pushes the pure-Go kernel past the blocked
// RMW tile on this machine.
//
// The pack costs O(K·N) moves against O(M·K·N) arithmetic, so it amortizes
// across the M output rows of a single call — and across an entire batch
// (and training steps) when the packed operand is a constant weight matrix
// reused via PackedB (packedplan.go).
//
// Accumulation order: every output element is one full-K dot product with a
// single accumulator walking k in increasing order — the same order as
// Naive's inner loop and the same order dotRows8 uses, so the packed path
// is bit-identical to the MulTransB row kernel it accelerates.

// panelW is the packed panel width: eight C columns computed per A-row pass,
// matching the eight accumulator chains microDot8 keeps in registers.
const panelW = 8

// packedThreshold selects the packed path in Serial/SerialAccum/Parallel
// once the B footprint (K·N elements) outgrows the regime where the
// pack-free blocked kernel's strided B walk is still cheap. Below it the
// O(K·N) pack is a poor trade for cache-resident operands; above it the
// single-stream panels win decisively (see BenchmarkGemmMicrokernel).
const packedThreshold = 24_576 // K·N elements

// packedMinRows gates the packed path on output height: with fewer rows the
// pack cost is not amortized and the blocked kernel stays ahead.
const packedMinRows = 4

// packBuf holds reusable panel storage for the pack-per-call entry points; a
// zero value is ready to use and grows on demand.
type packBuf struct {
	b []float32
}

// panels returns a buffer of at least n floats, reusing prior storage.
func (p *packBuf) panels(n int) []float32 {
	if cap(p.b) < n {
		p.b = make([]float32, n)
	}
	return p.b[:n]
}

// bufPool recycles packBufs for the pack-per-call paths so steady-state
// training steps do not allocate (Batch runs many Serial instances
// concurrently; sync.Pool keeps them race-free).
var bufPool = sync.Pool{New: func() any { return new(packBuf) }}

// padUp rounds n up to a multiple of panelW.
func padUp(n int) int { return (n + panelW - 1) / panelW * panelW }

// packPanels copies B (K×N row-major) into k-interleaved panels of panelW
// columns: dst[(j/panelW)*K*panelW + k*panelW + c] = B[k][j+c]. Columns past
// N pack as zeros so the kernel needs no column-edge variant. dst must have
// K*padUp(N) elements.
func packPanels(dst []float32, b *Matrix) {
	K, N := b.Rows, b.Cols
	idx := 0
	j := 0
	for ; j+panelW <= N; j += panelW {
		copyStrip8(dst[idx:idx+K*panelW], b.Data[j:], N)
		idx += K * panelW
	}
	if j < N {
		for k := 0; k < K; k++ {
			brow := b.Data[k*N : (k+1)*N]
			for c := 0; c < panelW; c++ {
				if j+c < N {
					dst[idx] = brow[j+c]
				} else {
					dst[idx] = 0
				}
				idx++
			}
		}
	}
}

// packPanelsTrans packs the TRANSPOSE of src (N×K row-major) into the same
// panel layout — the B operand of C = A·srcᵀ without materializing the
// transpose: dst[...] = src[j+c][k]. Each panel gathers eight consecutive
// src rows walked along k (gatherStrip8). Rows past src.Rows pack as zeros.
// dst must have K*padUp(src.Rows) elements.
func packPanelsTrans(dst []float32, src *Matrix) {
	K, N := src.Cols, src.Rows
	idx := 0
	j := 0
	for ; j+panelW <= N; j += panelW {
		gatherStrip8(dst[idx:idx+K*panelW],
			src.Row(j), src.Row(j+1), src.Row(j+2), src.Row(j+3),
			src.Row(j+4), src.Row(j+5), src.Row(j+6), src.Row(j+7))
		idx += K * panelW
	}
	if j < N {
		for k := 0; k < K; k++ {
			for c := 0; c < panelW; c++ {
				if j+c < N {
					dst[idx] = src.Data[(j+c)*K+k]
				} else {
					dst[idx] = 0
				}
				idx++
			}
		}
	}
}

// packedMulRange computes rows [lo, hi) of C = A·B (accum=false overwrites,
// accum=true adds) from pre-packed panels covering all padUp(n) columns.
// n is the live column count (c.Cols).
func packedMulRange(c, a *Matrix, panels []float32, n int, lo, hi int, accum bool) {
	K := a.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		j := 0
		for ; j+panelW <= n; j += panelW {
			s0, s1, s2, s3, s4, s5, s6, s7 := microDot8(arow, panels[j*K:(j+panelW)*K])
			if accum {
				crow[j] += s0
				crow[j+1] += s1
				crow[j+2] += s2
				crow[j+3] += s3
				crow[j+4] += s4
				crow[j+5] += s5
				crow[j+6] += s6
				crow[j+7] += s7
			} else {
				crow[j] = s0
				crow[j+1] = s1
				crow[j+2] = s2
				crow[j+3] = s3
				crow[j+4] = s4
				crow[j+5] = s5
				crow[j+6] = s6
				crow[j+7] = s7
			}
		}
		if j < n {
			// Final partial panel: zero-padded columns yield dots that are
			// simply not stored.
			s := [panelW]float32{}
			s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = microDot8(arow, panels[j*K:(j+panelW)*K])
			for c2 := 0; j+c2 < n; c2++ {
				if accum {
					crow[j+c2] += s[c2]
				} else {
					crow[j+c2] = s[c2]
				}
			}
		}
	}
}

// packedAccum computes C += A·B, packing B's panels into buf for the call.
func packedAccum(buf *packBuf, c, a, b *Matrix) {
	panels := buf.panels(b.Rows * padUp(b.Cols))
	packPanels(panels, b)
	packedMulRange(c, a, panels, b.Cols, 0, a.Rows, true)
}

// PackedSerial computes C = A·B through the packed-panel kernel,
// single-threaded. C is overwritten.
func PackedSerial(c, a, b *Matrix) {
	checkMul(c, a, b)
	buf := bufPool.Get().(*packBuf)
	panels := buf.panels(b.Rows * padUp(b.Cols))
	packPanels(panels, b)
	packedMulRange(c, a, panels, b.Cols, 0, a.Rows, false)
	bufPool.Put(buf)
}
