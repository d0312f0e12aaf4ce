package sparse

import (
	"fmt"

	"spgcnn/internal/kern"
)

// CTCSR is the paper's Column Tiled-Compressed Sparse Row format
// (Fig. 5a): the matrix is split into vertical tiles of tileWidth columns,
// and each tile is stored as an independent CSR. Column indices inside a
// tile are tile-relative, so walking one tile touches a compact, contiguous
// region of the value/index arrays — the locality and TLB property §4.2
// relies on.
type CTCSR struct {
	Rows, Cols int
	TileWidth  int
	Tiles      []*CSR // len = ceil(Cols/TileWidth); tile t covers columns [t*TileWidth, ...)

	scan []int32 // FromPlanesCTInto's list of one plane's non-zero rows
}

// DefaultTileWidth is the column-tile width used when callers do not
// specify one. 64 columns × 4 bytes = 256 B of dense span per row, a few
// rows of which share a cache line stream and sit inside one page, which is
// the regime the paper's TLB argument describes.
const DefaultTileWidth = 64

// FromDenseCT builds a CT-CSR matrix from a row-major dense matrix.
// tileWidth <= 0 selects DefaultTileWidth.
func FromDenseCT(data []float32, rows, cols, tileWidth int) *CTCSR {
	m := &CTCSR{}
	FromDenseCTInto(m, data, rows, cols, tileWidth)
	return m
}

// FromDenseCTInto rebuilds m from a row-major dense matrix, reusing the
// tile skeletons and their Values/ColIdx/RowPtr storage from m's previous
// contents. After the arrays have grown to steady-state capacity,
// recompressing a same-shaped matrix allocates nothing — the property the
// per-step sparse BP kernel depends on. tileWidth <= 0 selects
// DefaultTileWidth.
func FromDenseCTInto(m *CTCSR, data []float32, rows, cols, tileWidth int) {
	m.reset(len(data), rows, cols, tileWidth)
	for t, tile := range m.Tiles {
		lo := t * m.TileWidth
		hi := lo + tile.Cols
		for i := 0; i < rows; i++ {
			row := data[i*cols+lo : i*cols+hi]
			for j, v := range row {
				if v != 0 {
					tile.Values = append(tile.Values, v)
					tile.ColIdx = append(tile.ColIdx, int32(j))
				}
			}
			tile.RowPtr[i+1] = int32(len(tile.Values))
		}
	}
}

// FromPlanesCTInto rebuilds m from the TRANSPOSE of what FromDenseCTInto
// reads: data holds cols planes of rows elements each (a [C][H][W] feature
// map with cols = C and rows = H·W), and the result is bit-for-bit the
// matrix FromDenseCTInto builds from the [H][W][C] copy — one row per
// plane position, one column per plane — without that copy ever being
// made. Each tile is a counting transpose over kern.NonZeros' list of each
// plane's non-zero rows: one pass counts every row's non-zeros into
// RowPtr, a second places them, so the dense operand is only ever scanned
// in memory order and only non-zeros are visited. Storage is reused
// exactly as by FromDenseCTInto.
func FromPlanesCTInto(m *CTCSR, data []float32, rows, cols, tileWidth int) {
	m.reset(len(data), rows, cols, tileWidth)
	if cap(m.scan) < rows {
		m.scan = make([]int32, rows)
	}
	scan := m.scan[:rows]
	for t, tile := range m.Tiles {
		planes := data[t*m.TileWidth*rows:][:tile.Cols*rows]
		next := tile.RowPtr[1:] // next[i] ends up as row i's end, RowPtr[i+1]
		clear(next)
		for j := 0; j < tile.Cols; j++ {
			for _, i := range scan[:kern.NonZeros(scan, planes[j*rows:][:rows])] {
				next[i]++
			}
		}
		nnz := int32(0)
		for i, n := range next {
			next[i] = nnz // row i's insertion cursor
			nnz += n
		}
		if cap(tile.Values) < int(nnz) || cap(tile.ColIdx) < int(nnz) {
			tile.Values = make([]float32, nnz)
			tile.ColIdx = make([]int32, nnz)
		}
		vals, idx := tile.Values[:nnz], tile.ColIdx[:nnz]
		for j := 0; j < tile.Cols; j++ {
			plane := planes[j*rows:][:rows]
			for _, i := range scan[:kern.NonZeros(scan, plane)] {
				p := next[i]
				vals[p], idx[p] = plane[i], int32(j)
				next[i] = p + 1
			}
		}
		tile.Values, tile.ColIdx = vals, idx
	}
}

// reset reshapes m to an empty rows×cols matrix at the given tile width
// (<= 0 selects DefaultTileWidth), keeping every tile skeleton and its
// storage: RowPtr has rows+1 entries with RowPtr[0] = 0, Values and ColIdx
// are emptied. n is the dense operand's length, which must be rows·cols.
func (m *CTCSR) reset(n, rows, cols, tileWidth int) {
	if n != rows*cols {
		panic(fmt.Sprintf("sparse: data length %d != %d x %d", n, rows, cols))
	}
	if tileWidth <= 0 {
		tileWidth = DefaultTileWidth
	}
	nTiles := (cols + tileWidth - 1) / tileWidth
	m.Rows, m.Cols, m.TileWidth = rows, cols, tileWidth
	if cap(m.Tiles) < nTiles {
		tiles := make([]*CSR, nTiles)
		copy(tiles, m.Tiles)
		m.Tiles = tiles
	} else {
		m.Tiles = m.Tiles[:nTiles]
	}
	for t := range m.Tiles {
		tile := m.Tiles[t]
		if tile == nil {
			tile = &CSR{}
			m.Tiles[t] = tile
		}
		tile.Rows, tile.Cols = rows, min(tileWidth, cols-t*tileWidth)
		if cap(tile.RowPtr) < rows+1 {
			tile.RowPtr = make([]int32, rows+1)
		} else {
			tile.RowPtr = tile.RowPtr[:rows+1]
		}
		tile.RowPtr[0] = 0
		tile.Values = tile.Values[:0]
		tile.ColIdx = tile.ColIdx[:0]
	}
}

// ToDense expands the matrix back to a row-major dense slice.
func (m *CTCSR) ToDense() []float32 {
	out := make([]float32, m.Rows*m.Cols)
	for t, tile := range m.Tiles {
		lo := t * m.TileWidth
		for i := 0; i < tile.Rows; i++ {
			for p := tile.RowPtr[i]; p < tile.RowPtr[i+1]; p++ {
				out[i*m.Cols+lo+int(tile.ColIdx[p])] = tile.Values[p]
			}
		}
	}
	return out
}

// NNZ returns the number of stored non-zeros across all tiles.
func (m *CTCSR) NNZ() int {
	n := 0
	for _, t := range m.Tiles {
		n += t.NNZ()
	}
	return n
}

// Sparsity returns the fraction of zero elements.
func (m *CTCSR) Sparsity() float64 {
	total := m.Rows * m.Cols
	if total == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/float64(total)
}

// SpMM computes dense C = (this sparse matrix) · dense B, tile by tile.
// Within a tile, the kernel re-reads only that tile's slice of B rows,
// which is the reuse CT-CSR exists to create.
func (m *CTCSR) SpMM(c, b []float32, bCols int) {
	if len(b) != m.Cols*bCols {
		panic(fmt.Sprintf("sparse: B length %d != %d x %d", len(b), m.Cols, bCols))
	}
	if len(c) != m.Rows*bCols {
		panic(fmt.Sprintf("sparse: C length %d != %d x %d", len(c), m.Rows, bCols))
	}
	clear(c)
	for t, tile := range m.Tiles {
		colBase := t * m.TileWidth
		for i := 0; i < tile.Rows; i++ {
			crow := c[i*bCols : (i+1)*bCols]
			for p := tile.RowPtr[i]; p < tile.RowPtr[i+1]; p++ {
				v := tile.Values[p]
				brow := b[(colBase+int(tile.ColIdx[p]))*bCols:][:bCols]
				for j := range brow {
					crow[j] += v * brow[j]
				}
			}
		}
	}
}
