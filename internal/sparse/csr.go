// Package sparse implements the sparse-matrix storage formats the
// Sparse-Kernel (paper §4.2) is built on:
//
//   - CSR: the classical Compressed Sparse Row format (value array, column
//     index array, row pointer array).
//   - CT-CSR: the paper's Column Tiled-CSR adaptation (Fig. 5a): the matrix
//     is tiled along columns and each tile is stored in CSR. Elements of
//     adjacent rows within a tile are adjacent in memory, improving both
//     cache locality and TLB behaviour when a kernel walks a tile.
package sparse

import "fmt"

// CSR is a sparse rows-by-cols float32 matrix in Compressed Sparse Row
// format. For row i, the non-zeros are Values[RowPtr[i]:RowPtr[i+1]] at
// columns ColIdx[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	Rows, Cols int
	Values     []float32
	ColIdx     []int32
	RowPtr     []int32
}

// FromDense builds a CSR matrix from a row-major dense matrix, treating
// exact zeros as absent.
func FromDense(data []float32, rows, cols int) *CSR {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("sparse: data length %d != %d x %d", len(data), rows, cols))
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	nnz := 0
	for _, v := range data {
		if v != 0 {
			nnz++
		}
	}
	m.Values = make([]float32, 0, nnz)
	m.ColIdx = make([]int32, 0, nnz)
	for i := 0; i < rows; i++ {
		row := data[i*cols : (i+1)*cols]
		for j, v := range row {
			if v != 0 {
				m.Values = append(m.Values, v)
				m.ColIdx = append(m.ColIdx, int32(j))
			}
		}
		m.RowPtr[i+1] = int32(len(m.Values))
	}
	return m
}

// ToDense expands the matrix back to a row-major dense slice.
func (m *CSR) ToDense() []float32 {
	out := make([]float32, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[i*m.Cols+int(m.ColIdx[p])] = m.Values[p]
		}
	}
	return out
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Values) }

// Sparsity returns the fraction of zero elements. An empty matrix has
// sparsity 0.
func (m *CSR) Sparsity() float64 {
	total := m.Rows * m.Cols
	if total == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/float64(total)
}

// RowNNZ returns the number of non-zeros in row i.
func (m *CSR) RowNNZ(i int) int {
	return int(m.RowPtr[i+1] - m.RowPtr[i])
}

// SpMM computes dense C (rows×bCols, row-major) = sparse A · dense B
// (A.Cols×bCols, row-major). Only the non-zero terms of A are touched, so
// the flop count is 2·NNZ·bCols — this is the arithmetic a goodput
// measurement counts as useful.
func (m *CSR) SpMM(c, b []float32, bCols int) {
	if len(b) != m.Cols*bCols {
		panic(fmt.Sprintf("sparse: B length %d != %d x %d", len(b), m.Cols, bCols))
	}
	if len(c) != m.Rows*bCols {
		panic(fmt.Sprintf("sparse: C length %d != %d x %d", len(c), m.Rows, bCols))
	}
	clear(c)
	for i := 0; i < m.Rows; i++ {
		crow := c[i*bCols : (i+1)*bCols]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := m.Values[p]
			brow := b[int(m.ColIdx[p])*bCols:][:bCols]
			for j := range brow {
				crow[j] += v * brow[j]
			}
		}
	}
}
