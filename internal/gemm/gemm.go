// Package gemm is spgcnn's BLAS stand-in: single-precision general matrix
// multiply (SGEMM) in pure Go.
//
// The paper's baseline, Unfold+Parallel-GEMM, links against MKL/OpenBLAS and
// lets the library split one GEMM across all cores. This package provides
// the same two execution modes over one kernel path (packed.go): B is
// packed once into 8-wide, k-interleaved panels and kern.Dot8x4 streams
// each panel against four A rows at a time.
//
//   - Serial: that kernel on one thread. This is what GEMM-in-Parallel runs
//     many instances of.
//   - Parallel: the same kernel with the M dimension (rows of C) divided
//     across workers — the row-partitioning whose AIT-per-core consequences
//     §3.2 analyzes: each worker reads its rows of A, its rows of C, and
//     ALL of B.
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

// Serial computes C = A·B with a single thread through the packed-panel
// kernel. C is overwritten.
func Serial(c, a, b *Matrix) { mul(c, a, b, 1, false) }

// SerialAccum computes C += A·B (no zeroing) with a single thread.
func SerialAccum(c, a, b *Matrix) { mul(c, a, b, 1, true) }

// Flops returns the number of floating point operations a GEMM of these
// dimensions performs (2·M·N·K: one multiply plus one add per term).
func Flops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}
