package gemm

import (
	"sync"

	"spgcnn/internal/kern"
	"spgcnn/internal/par"
)

// The one SGEMM kernel path: the B operand is copied into column panels of
// panelW columns, interleaved along K (panel element 8k+c holds B[k][j+c]),
// and the inner kernel (kern.Dot8x4) streams ONE packed panel against four
// A rows — one panel load per K step feeding four rows of eight
// register-resident accumulators. Classical packing (Goto & van de Geijn,
// the paper's [26]) buys contiguity; the interleaved layout additionally
// collapses the eight B-row streams of the dot-orientation kernel into a
// single stream.
//
// The pack costs O(K·N) moves against O(M·K·N) arithmetic, so it amortizes
// across the M output rows of a single call — and across an entire batch
// (and training steps) when the packed operand is a constant weight matrix
// reused via PackedB (packedplan.go).
//
// Accumulation order: every output element is one full-K dot product with a
// single accumulator walking k in increasing order — the same order as
// Naive's inner loop, so for finite operands every entry point is
// bit-identical to it.

// panelW is the packed panel width: eight C columns computed per A-row pass,
// matching the eight accumulator chains kern.Dot8 keeps in registers.
const panelW = 8

// packBuf holds reusable panel storage; a zero value is ready to use and
// grows on demand.
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

// bufPool recycles packBufs so steady-state calls do not allocate (many
// Serial instances run concurrently; sync.Pool keeps them race-free).
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
// src rows walked along k (kern.Gather8). Rows past src.Rows pack as zeros.
// dst must have K*padUp(src.Rows) elements.
func packPanelsTrans(dst []float32, src *Matrix) {
	K, N := src.Cols, src.Rows
	idx := 0
	j := 0
	for ; j+panelW <= N; j += panelW {
		kern.Gather8(dst[idx:idx+K*panelW],
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
// n is the live column count (c.Cols). Rows run four at a time against
// each panel (kern.Dot8x4), the rest one at a time (kern.Dot8); the
// zero-padded columns of a final partial panel yield dots that are simply
// not stored.
func packedMulRange(c, a *Matrix, panels []float32, n int, lo, hi int, accum bool) {
	K := a.Cols
	var s [4][panelW]float32
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		for j := 0; j < n; j += panelW {
			kern.Dot8x4(&s, a0, a1, a2, a3, panels[j*K:(j+panelW)*K])
			for r := range s {
				putDots(c.Row(i + r)[j:min(j+panelW, n)], &s[r], accum)
			}
		}
	}
	for ; i < hi; i++ {
		arow, v := a.Row(i), &s[0]
		for j := 0; j < n; j += panelW {
			v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = kern.Dot8(arow, panels[j*K:(j+panelW)*K])
			putDots(c.Row(i)[j:min(j+panelW, n)], v, accum)
		}
	}
}

// putDots stores (accum=false) or adds (accum=true) one panel's dots into
// the ≤ panelW C columns of dst.
func putDots(dst []float32, v *[panelW]float32, accum bool) {
	if !accum {
		copy(dst, v[:])
		return
	}
	if len(dst) == panelW {
		d := (*[panelW]float32)(dst)
		for c := range d {
			d[c] += v[c]
		}
		return
	}
	for c := range dst {
		dst[c] += v[c]
	}
}

// mul packs B's panels once into pooled storage and computes C = A·B
// (accum=false overwrites, accum=true adds) with rows of C claimed by up
// to workers goroutines: rows write disjoint output and the panels are
// read-only, so guided chunking is safe.
func mul(c, a, b *Matrix, workers int, accum bool) {
	checkMul(c, a, b)
	buf := bufPool.Get().(*packBuf)
	panels := buf.panels(b.Rows * padUp(b.Cols))
	packPanels(panels, b)
	if workers <= 1 {
		packedMulRange(c, a, panels, b.Cols, 0, a.Rows, accum)
	} else {
		par.ForDynamic(a.Rows, workers, 1, func(lo, hi int) {
			packedMulRange(c, a, panels, b.Cols, lo, hi, accum)
		})
	}
	bufPool.Put(buf)
}

// PackedSerial is Serial under the name the benchmark harness's
// gemm.packed_gflops probe calls.
func PackedSerial(c, a, b *Matrix) { Serial(c, a, b) }
