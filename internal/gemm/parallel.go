package gemm

// Parallel computes C = A·B with the M dimension (rows of C) divided
// across workers, the way MKL/OpenBLAS parallelize a GEMM.
//
// This is the paper's "Parallel-GEMM" baseline. Its defining property
// (§3.2) is that each worker computes a slice of the rows of C, which
// requires that slice of A and of C but the ENTIRE B matrix, so the
// arithmetic intensity per core falls as P grows:
//
//	AIT/core = (2·M·N·K/P) / (M·K/P + K·N + M·N/P)
//
// For the square case this is the paper's n/2 at P=2 versus 2n/3 serial.
// B's panels are packed ONCE (read-only, shared by every worker) and rows
// are claimed dynamically through par.ForDynamic's guided chunking, so the
// pack is paid once per call and a ragged tail cannot idle a core.
// Workers <= 1 degrades to Serial.
func Parallel(c, a, b *Matrix, workers int) { mul(c, a, b, workers, false) }

// MulTransB computes C = A·Bᵀ without materializing the transpose:
// C[i][j] = Σ_k A[i][k]·B[j][k]. Bᵀ is packed into interleaved panels
// (packPanelsTrans) and streamed through kern.Dot8, one k-ordered
// accumulator per element. It is the explicit unfold's GEMM (Fig. 2c and
// the spatial ablation's baseline); no engine runs it.
func MulTransB(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("gemm: MulTransB dimension mismatch")
	}
	buf := bufPool.Get().(*packBuf)
	panels := buf.panels(b.Cols * padUp(b.Rows))
	packPanelsTrans(panels, b)
	packedMulRange(c, a, panels, b.Rows, 0, a.Rows, false)
	bufPool.Put(buf)
}
