// Package gemm is spgcnn's BLAS stand-in: single-precision general matrix
// multiply (SGEMM) in pure Go.
//
// The paper's baseline, Unfold+Parallel-GEMM, links against MKL/OpenBLAS and
// lets the library split one GEMM across all cores. This package provides
// the same two execution modes:
//
//   - Serial: a cache-blocked, register-tiled single-threaded SGEMM
//     (Goto-style loop ordering: pack-free, but blocked over K and M with a
//     4x4 register micro-kernel). This is what GEMM-in-Parallel runs many
//     instances of.
//   - Parallel: the same kernel with the M dimension (rows of C) statically
//     partitioned across workers — the row-partitioning whose AIT-per-core
//     consequences §3.2 analyzes: each worker reads its slice of A, its
//     slice of C, and ALL of B.
//
// All entry points compute C = A·B (optionally accumulating) for row-major
// float32 matrices.
package gemm

import "fmt"

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gemm: negative matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (len rows*cols) in a Matrix without copying.
func FromSlice(data []float32, rows, cols int) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("gemm: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix data.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero clears the matrix.
func (m *Matrix) Zero() { clear(m.Data) }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*m.Rows+i] = v
		}
	}
	return t
}

func checkMul(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("gemm: dimension mismatch C[%dx%d] = A[%dx%d] * B[%dx%d]",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Naive computes C = A·B with the textbook triple loop (ikj order so the
// inner loop streams rows). It is the correctness oracle for every other
// kernel in the repository.
func Naive(c, a, b *Matrix) {
	checkMul(c, a, b)
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// Cache-blocking parameters. kc*4 floats of B rows should fit in L1 next to
// the A block; mc rows of A x kc fits in L2. These are modest because the
// micro-kernel is 4x4 scalar registers (pure Go has no vector registers to
// widen the tile).
const (
	blockKC = 256 // K-dimension block
	blockMC = 64  // M-dimension block
	blockNC = 512 // N-dimension block
)

// usePacked reports whether a GEMM of these dimensions should take the
// packed-panel path (packed.go): enough output rows to amortize the pack,
// and a B footprint past the cache-resident regime where the pack-free
// blocked kernel holds its own.
func usePacked(m, k, n int) bool {
	return m >= minPackedRows && k*n >= minPackedArea
}

// Dispatch limits behind usePacked; variables only so ForcePackedForTest
// can drive small shapes through the packed kernels.
var (
	minPackedRows = packedMinRows
	minPackedArea = packedThreshold
)

// ForcePackedForTest drops the packed-path dispatch limits to 1 so that
// differential tests sweep the packed kernels at every geometry, including
// the small odd shapes that exercise remainder handling. It returns a
// restore function; not for use outside tests.
func ForcePackedForTest() (restore func()) {
	oldRows, oldArea := minPackedRows, minPackedArea
	minPackedRows, minPackedArea = 1, 1
	return func() { minPackedRows, minPackedArea = oldRows, oldArea }
}

// Serial computes C = A·B with a single thread: cache blocking with a 4x4
// register-tiled micro-kernel, switching to the packed-panel kernel for
// large operands. C is overwritten.
func Serial(c, a, b *Matrix) {
	checkMul(c, a, b)
	if usePacked(a.Rows, a.Cols, b.Cols) {
		PackedSerial(c, a, b)
		return
	}
	c.Zero()
	serialRange(c, a, b, 0, a.Rows)
}

// SerialAccum computes C += A·B (no zeroing) with a single thread.
func SerialAccum(c, a, b *Matrix) {
	checkMul(c, a, b)
	if usePacked(a.Rows, a.Cols, b.Cols) {
		buf := bufPool.Get().(*packBuf)
		packedAccum(buf, c, a, b)
		bufPool.Put(buf)
		return
	}
	serialRange(c, a, b, 0, a.Rows)
}

// serialRange accumulates rows [mlo, mhi) of C += A·B using blocked loops.
func serialRange(c, a, b *Matrix, mlo, mhi int) {
	K, N := a.Cols, b.Cols
	for kk := 0; kk < K; kk += blockKC {
		kend := min(kk+blockKC, K)
		for mm := mlo; mm < mhi; mm += blockMC {
			mend := min(mm+blockMC, mhi)
			for nn := 0; nn < N; nn += blockNC {
				nend := min(nn+blockNC, N)
				microPanel(c, a, b, mm, mend, kk, kend, nn, nend)
			}
		}
	}
}

// microPanel runs the register-tiled kernel over an (M-block, K-block,
// N-block) panel: 4 rows of C at a time, 4 columns at a time, accumulators
// held in 16 scalar locals that the compiler keeps in registers. The tile
// body lives in panelTile4x4 (microkernel.go), which is bounds-check-free.
func microPanel(c, a, b *Matrix, mlo, mhi, klo, khi, nlo, nhi int) {
	i := mlo
	for ; i+4 <= mhi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		x0, x1, x2, x3 := a0[klo:khi], a1[klo:khi], a2[klo:khi], a3[klo:khi]
		j := nlo
		for ; j+4 <= nhi; j += 4 {
			bp := b.Data[klo*b.Cols+j:]
			panelTile4x4(c0[j:], c1[j:], c2[j:], c3[j:], x0, x1, x2, x3, bp, b.Cols)
		}
		// N remainder for this 4-row strip.
		for ; j < nhi; j++ {
			var s0, s1, s2, s3 float32
			for k := klo; k < khi; k++ {
				bv := b.Row(k)[j]
				s0 += a0[k] * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			c0[j] += s0
			c1[j] += s1
			c2[j] += s2
			c3[j] += s3
		}
	}
	// M remainder rows.
	for ; i < mhi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := klo; k < khi; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := nlo; j < nhi; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// Flops returns the number of floating point operations a GEMM of these
// dimensions performs (2·M·N·K: one multiply plus one add per term).
func Flops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}
