package sparse

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"spgcnn/internal/rng"
)

func randSparseDense(r *rng.RNG, rows, cols int, sparsity float64) []float32 {
	d := make([]float32, rows*cols)
	for i := range d {
		if r.Float64() >= sparsity {
			d[i] = float32(r.NormFloat64())
			if d[i] == 0 {
				d[i] = 1
			}
		}
	}
	return d
}

func slicesClose(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > tol && d > tol*math.Max(math.Abs(float64(a[i])), math.Abs(float64(b[i]))) {
			return false
		}
	}
	return true
}

func denseMM(a []float32, m, k int, b []float32, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			v := a[i*k+kk]
			if v == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += v * b[kk*n+j]
			}
		}
	}
	return c
}

func TestCSRRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct {
		rows, cols int
		sparsity   float64
	}{
		{1, 1, 0}, {5, 7, 0.5}, {20, 30, 0.9}, {8, 8, 1.0}, {16, 3, 0},
	} {
		d := randSparseDense(r, tc.rows, tc.cols, tc.sparsity)
		m := FromDense(d, tc.rows, tc.cols)
		if !slicesClose(m.ToDense(), d, 0) {
			t.Fatalf("CSR round trip failed for %+v", tc)
		}
	}
}

func TestCSRKnownLayout(t *testing.T) {
	// 2x3 matrix [[0 5 0],[7 0 9]]
	m := FromDense([]float32{0, 5, 0, 7, 0, 9}, 2, 3)
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.Values[0] != 5 || m.ColIdx[0] != 1 {
		t.Fatal("first nonzero wrong")
	}
	if m.RowPtr[0] != 0 || m.RowPtr[1] != 1 || m.RowPtr[2] != 3 {
		t.Fatalf("RowPtr = %v", m.RowPtr)
	}
	if m.RowNNZ(0) != 1 || m.RowNNZ(1) != 2 {
		t.Fatal("RowNNZ wrong")
	}
}

func TestCSRSparsity(t *testing.T) {
	m := FromDense([]float32{0, 5, 0, 7, 0, 9, 0, 0}, 2, 4)
	if got := m.Sparsity(); got != 5.0/8.0 {
		t.Fatalf("Sparsity = %v, want 0.625", got)
	}
}

func TestCSRSpMMMatchesDense(t *testing.T) {
	r := rng.New(2)
	for _, tc := range []struct{ m, k, n int }{{1, 1, 1}, {4, 8, 3}, {13, 17, 9}, {32, 64, 16}} {
		a := randSparseDense(r, tc.m, tc.k, 0.8)
		b := randSparseDense(r, tc.k, tc.n, 0)
		want := denseMM(a, tc.m, tc.k, b, tc.n)
		got := make([]float32, tc.m*tc.n)
		FromDense(a, tc.m, tc.k).SpMM(got, b, tc.n)
		if !slicesClose(got, want, 1e-4) {
			t.Fatalf("CSR SpMM differs for %+v", tc)
		}
	}
}

func TestCSRSpMMOverwrites(t *testing.T) {
	a := FromDense([]float32{1, 0, 0, 1}, 2, 2)
	b := []float32{3, 4, 5, 6}
	c := []float32{99, 99, 99, 99}
	a.SpMM(c, b, 2)
	if !slicesClose(c, b, 0) {
		t.Fatal("SpMM did not overwrite destination")
	}
}

func TestCTCSRRoundTrip(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct {
		rows, cols, tw int
		sparsity       float64
	}{
		{1, 1, 1, 0}, {5, 7, 3, 0.5}, {20, 130, 64, 0.9}, {8, 64, 64, 0.7},
		{8, 65, 64, 0.7}, {3, 10, 0, 0.5}, // tw=0 -> default
	} {
		d := randSparseDense(r, tc.rows, tc.cols, tc.sparsity)
		m := FromDenseCT(d, tc.rows, tc.cols, tc.tw)
		if !slicesClose(m.ToDense(), d, 0) {
			t.Fatalf("CT-CSR round trip failed for %+v", tc)
		}
	}
}

func TestCTCSRTileCountAndWidths(t *testing.T) {
	m := FromDenseCT(make([]float32, 4*130), 4, 130, 64)
	if len(m.Tiles) != 3 {
		t.Fatalf("tiles = %d, want 3", len(m.Tiles))
	}
	if m.Tiles[0].Cols != 64 || m.Tiles[1].Cols != 64 || m.Tiles[2].Cols != 2 {
		t.Fatalf("tile widths = %d,%d,%d", m.Tiles[0].Cols, m.Tiles[1].Cols, m.Tiles[2].Cols)
	}
}

func TestCTCSRAgreesWithCSR(t *testing.T) {
	r := rng.New(4)
	d := randSparseDense(r, 15, 100, 0.85)
	csr := FromDense(d, 15, 100)
	ct := FromDenseCT(d, 15, 100, 32)
	if csr.NNZ() != ct.NNZ() {
		t.Fatalf("NNZ disagree: CSR %d vs CT-CSR %d", csr.NNZ(), ct.NNZ())
	}
	if math.Abs(csr.Sparsity()-ct.Sparsity()) > 1e-12 {
		t.Fatal("sparsity disagrees")
	}
	b := randSparseDense(r, 100, 7, 0)
	c1 := make([]float32, 15*7)
	c2 := make([]float32, 15*7)
	csr.SpMM(c1, b, 7)
	ct.SpMM(c2, b, 7)
	if !slicesClose(c1, c2, 1e-4) {
		t.Fatal("CT-CSR SpMM differs from CSR SpMM")
	}
}

func TestCTCSRTileLayout(t *testing.T) {
	// The pointer-shifting kernel walks RowPtr/ColIdx/Values directly: a
	// tile stores its rows consecutively with tile-relative columns.
	d := []float32{
		1, 0, 2, 0,
		0, 3, 0, 4,
	}
	m := FromDenseCT(d, 2, 4, 2)
	for ti, want := range []CSR{
		{Rows: 2, Cols: 2, Values: []float32{1, 3}, ColIdx: []int32{0, 1}, RowPtr: []int32{0, 1, 2}},
		{Rows: 2, Cols: 2, Values: []float32{2, 4}, ColIdx: []int32{0, 1}, RowPtr: []int32{0, 1, 2}},
	} {
		if !reflect.DeepEqual(*m.Tiles[ti], want) {
			t.Fatalf("tile %d = %+v, want %+v", ti, *m.Tiles[ti], want)
		}
	}
}

func TestFromPlanesCTMatchesFromDenseCT(t *testing.T) {
	// Encoding the plane-major (transposed) operand must give exactly the
	// matrix FromDenseCTInto gives from the row-major one, through one
	// reused skeleton whose contents shrink and grow.
	r := rng.New(5)
	got := &CTCSR{}
	for _, tc := range []struct {
		rows, cols, tw int
		sparsity       float64
	}{
		{9, 70, 16, 0.8}, {1024, 64, 64, 0.94}, {16, 130, 64, 0.5}, {7, 5, 1, 0},
		{12, 3, 1024, 1}, {1, 1, 0, 0}, {30, 65, 64, 0.99}, {0, 0, 4, 0},
	} {
		d := randSparseDense(r, tc.rows, tc.cols, tc.sparsity)
		planes := make([]float32, len(d))
		for i := 0; i < tc.rows; i++ {
			for j := 0; j < tc.cols; j++ {
				planes[j*tc.rows+i] = d[i*tc.cols+j]
			}
		}
		want := FromDenseCT(d, tc.rows, tc.cols, tc.tw)
		FromPlanesCTInto(got, planes, tc.rows, tc.cols, tc.tw)
		if got.Rows != want.Rows || got.Cols != want.Cols || got.TileWidth != want.TileWidth || len(got.Tiles) != len(want.Tiles) {
			t.Fatalf("%+v: shape %dx%d/%d in %d tiles, want %dx%d/%d in %d", tc, got.Rows, got.Cols,
				got.TileWidth, len(got.Tiles), want.Rows, want.Cols, want.TileWidth, len(want.Tiles))
		}
		for ti, w := range want.Tiles {
			g := got.Tiles[ti]
			if g.Rows != w.Rows || g.Cols != w.Cols || !slices.Equal(g.RowPtr, w.RowPtr) ||
				!slices.Equal(g.ColIdx, w.ColIdx) || !slices.Equal(g.Values, w.Values) {
				t.Fatalf("%+v: tile %d differs from FromDenseCT's", tc, ti)
			}
		}
	}
}

func TestSpMMPropertyQuick(t *testing.T) {
	r := rng.New(6)
	if err := quick.Check(func(m8, k8, n8, s8, tw8 uint8) bool {
		m, k, n := int(m8%12)+1, int(k8%20)+1, int(n8%10)+1
		tw := int(tw8%8) + 1
		s := float64(s8) / 260
		a := randSparseDense(r, m, k, s)
		b := randSparseDense(r, k, n, 0)
		want := denseMM(a, m, k, b, n)
		c1 := make([]float32, m*n)
		FromDense(a, m, k).SpMM(c1, b, n)
		c2 := make([]float32, m*n)
		FromDenseCT(a, m, k, tw).SpMM(c2, b, n)
		return slicesClose(c1, want, 1e-4) && slicesClose(c2, want, 1e-4)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := FromDense(nil, 0, 0)
	if m.NNZ() != 0 || m.Sparsity() != 0 {
		t.Fatal("empty CSR not empty")
	}
	ct := FromDenseCT(nil, 0, 0, 4)
	if ct.NNZ() != 0 || len(ct.ToDense()) != 0 {
		t.Fatal("empty CT-CSR not empty")
	}
}

func BenchmarkCSRSpMM(b *testing.B) {
	r := rng.New(1)
	a := FromDense(randSparseDense(r, 256, 256, 0.85), 256, 256)
	x := randSparseDense(r, 256, 64, 0)
	c := make([]float32, 256*64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpMM(c, x, 64)
	}
}

func BenchmarkCTCSRSpMM(b *testing.B) {
	r := rng.New(1)
	a := FromDenseCT(randSparseDense(r, 256, 256, 0.85), 256, 256, 64)
	x := randSparseDense(r, 256, 64, 0)
	c := make([]float32, 256*64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpMM(c, x, 64)
	}
}
