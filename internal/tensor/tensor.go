// Package tensor implements the dense float32 multi-dimensional arrays that
// activations, weights and error gradients are stored in throughout spgcnn.
//
// Tensors are row-major over an explicit dimension list, matching the
// paper's indexing conventions: activations are [channels][height][width]
// (c, y, x with x fastest) and convolution weights are
// [features][channels][ky][kx]. The Sparse-Kernel and Stencil-Kernel code
// generators rely on the explicit layout-transform helpers in layout.go to
// move the vectorizable dimension into the fastest-varying position, exactly
// as §4.2/§4.3 of the paper describe.
package tensor

import (
	"fmt"
	"math"

	"spgcnn/internal/rng"
)

// Tensor is a dense row-major float32 array. Data has exactly
// prod(Dims) elements; the last dimension varies fastest.
type Tensor struct {
	Dims []int
	Data []float32

	// Layout tags how Data is arranged (blocked.go). The zero value is
	// the canonical NCHW row-major layout, so code that never opts into
	// blocking is unaffected. The tag is advisory shape metadata: the
	// layout transforms set it, engines with blocked entry points check
	// it, and it travels with Clone.
	Layout Layout

	// Ver is an opt-in version counter for caches of artifacts derived
	// from Data (packed GEMM operands, layout transforms). Zero means
	// untracked: consumers must re-derive on every use. Code that mutates
	// Data in place and wants such caches to engage calls Bump after each
	// mutation (the first Bump moves the tensor from untracked to
	// tracked).
	Ver uint64
}

// Bump advances the version counter after an in-place mutation of Data, so
// version-keyed caches of derived artifacts invalidate. A fresh (Ver == 0)
// tensor becomes tracked on its first Bump.
func (t *Tensor) Bump() { t.Ver++ }

// New allocates a zero-filled tensor with the given dimensions.
// It panics on negative dimensions.
func New(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in %v", d, dims))
		}
		n *= d
	}
	return &Tensor{Dims: append([]int(nil), dims...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given dimensions, without
// copying. It panics if len(data) does not match the shape.
func FromSlice(data []float32, dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		// Validate like New: a pair of negative dimensions multiplies
		// back to a positive product, so the length check alone can
		// coincidentally pass a nonsense shape.
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in %v", d, dims))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match dims %v (need %d)", len(data), dims, n))
	}
	return &Tensor{Dims: append([]int(nil), dims...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Dims[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Dims) }

// Clone returns a deep copy (layout tag included).
func (t *Tensor) Clone() *Tensor {
	c := New(t.Dims...)
	c.Layout = t.Layout
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical dimension lists.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Dims) != len(o.Dims) {
		return false
	}
	for i, d := range t.Dims {
		if o.Dims[i] != d {
			return false
		}
	}
	return true
}

// Reshape returns a view (shared data) with new dimensions. The element
// count must be preserved.
func (t *Tensor) Reshape(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Dims, len(t.Data), dims, n))
	}
	return &Tensor{Dims: append([]int(nil), dims...), Data: t.Data}
}

// String summarizes the tensor for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v[%d elems]", t.Dims, len(t.Data))
}

// index3 computes the flat offset of (a, b, c) in a rank-3 tensor.
func (t *Tensor) index3(a, b, c int) int {
	return (a*t.Dims[1]+b)*t.Dims[2] + c
}

// index4 computes the flat offset of (a, b, c, d) in a rank-4 tensor.
func (t *Tensor) index4(a, b, c, d int) int {
	return ((a*t.Dims[1]+b)*t.Dims[2]+c)*t.Dims[3] + d
}

// At3 returns element (a, b, c) of a rank-3 tensor.
func (t *Tensor) At3(a, b, c int) float32 { return t.Data[t.index3(a, b, c)] }

// Set3 assigns element (a, b, c) of a rank-3 tensor.
func (t *Tensor) Set3(a, b, c int, v float32) { t.Data[t.index3(a, b, c)] = v }

// At4 returns element (a, b, c, d) of a rank-4 tensor.
func (t *Tensor) At4(a, b, c, d int) float32 { return t.Data[t.index4(a, b, c, d)] }

// Set4 assigns element (a, b, c, d) of a rank-4 tensor.
func (t *Tensor) Set4(a, b, c, d int, v float32) { t.Data[t.index4(a, b, c, d)] = v }

// Row3 returns the contiguous innermost row at (a, b) of a rank-3 tensor,
// i.e. elements (a, b, 0..Dims[2]). The slice aliases the tensor's data.
func (t *Tensor) Row3(a, b int) []float32 {
	base := t.index3(a, b, 0)
	return t.Data[base : base+t.Dims[2]]
}

// FillUniform fills the tensor with values uniform in [lo, hi).
func (t *Tensor) FillUniform(r *rng.RNG, lo, hi float32) {
	scale := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + scale*r.Float32()
	}
}

// FillNormal fills the tensor with N(mean, stddev²) values.
func (t *Tensor) FillNormal(r *rng.RNG, mean, stddev float32) {
	for i := range t.Data {
		t.Data[i] = mean + stddev*float32(r.NormFloat64())
	}
}

// Sparsify zeroes a uniformly random subset of elements so the resulting
// fraction of zeros is approximately the given sparsity in [0, 1]. It is
// how the benchmark harness manufactures the moderately sparse
// (50%–99%) error-gradient tensors the paper's §4.2 evaluation sweeps over.
func (t *Tensor) Sparsify(r *rng.RNG, sparsity float64) {
	if sparsity <= 0 {
		return
	}
	if sparsity >= 1 {
		t.Zero()
		return
	}
	for i := range t.Data {
		if r.Float64() < sparsity {
			t.Data[i] = 0
		}
	}
}

// Sparsity returns the fraction of exact zeros, the quantity the paper's
// goodput analysis (Eqs. 9–10) is defined over. An empty tensor has
// sparsity 0.
func (t *Tensor) Sparsity() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	zeros := 0
	for _, v := range t.Data {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(t.Data))
}

// NNZ returns the number of non-zero elements.
func (t *Tensor) NNZ() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled accumulates s*o into t. Shapes must match.
func (t *Tensor) AddScaled(o *Tensor, s float32) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.Dims, o.Dims))
	}
	for i, v := range o.Data {
		t.Data[i] += s * v
	}
}

// MaxAbsDiff returns max_i |t[i] - o[i]|. Shapes must match.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", a.Dims, b.Dims))
	}
	maxd := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Identical reports whether the two tensors have the same shape and
// bit-identical elements (NaN != NaN, so any NaN makes tensors differ —
// exactly what reuse-determinism checks want).
func Identical(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether the two tensors agree elementwise within tol,
// using a mixed absolute/relative criterion suitable for float32 kernels
// that accumulate in different orders.
func AlmostEqual(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		d := math.Abs(x - y)
		scale := math.Max(math.Abs(x), math.Abs(y))
		if d > tol && d > tol*scale {
			return false
		}
	}
	return true
}
