package stencil

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// Kernel is a generated stencil convolution plan for one spec. Forward
// propagation is the paper's Stencil-Kernel: one register-tiled body
// (body.go) run by every spec — strided, padded, dilated or grouped —
// over the input read in place, or through one staging step that
// zero-pads it and applies the Eq. 21 stride split.
//
// The paper deploys the stencil for FP only; BP delegates to the serial
// unfold+GEMM kernel, as the other FP specialists do.
//
// The tap and row tables are built once here and never written again; the
// staged input comes from the execution context's arena per batch call, so
// one instance is safe for concurrent use through the batch entry points.
type Kernel struct {
	spec conv.Spec
	plan Plan
	bp   *unfoldgemm.Kernel // BP delegate (serial; batchpar supplies the fan-out)

	// stage reports whether the body reads an arena copy of each sample
	// rather than the caller's tensor. Either way it sees every channel as
	// rows rows of rowLen floats.
	stage        bool
	rows, rowLen int
	// taps[kx] is tap kx's offset within a row relative to output column
	// 0: kx·dx in place, its position in the split row when staged.
	taps []int
	// ops[n-1] lists the input rows feeding a block of n output rows.
	ops [MaxRY][]rowOp
}

// New generates a kernel for s using the plan chosen by ChoosePlan.
func New(s conv.Spec) *Kernel { return NewWithPlan(ChoosePlan(s)) }

// NewWithPlan generates a kernel for an explicit plan — the ablation entry
// point for sweeping register tiles against the generator's choice. RY is
// clamped to the 1..MaxRY rows the body holds.
func NewWithPlan(p Plan) *Kernel {
	s := p.Spec
	s.MustValidate()
	p.RY = max(min(p.RY, MaxRY), 1)
	if p.TileX < 1 {
		p.TileX = s.OutX()
	}
	k := &Kernel{spec: s, plan: p, bp: unfoldgemm.New(s, 1), rows: s.Ny, rowLen: s.Nx}
	// A block reads 4 columns, so rows narrower than that are staged too:
	// the copy's tail slack keeps those reads in range.
	k.stage = s.Px > 0 || s.Py > 0 || s.Sx > 1 || s.OutX() < 4
	wq := s.Nx
	if k.stage {
		wq = (s.Nx + 2*s.Px + s.Sx - 1) / s.Sx
		k.rows, k.rowLen = s.Ny+2*s.Py, s.Sx*wq
	}
	for kx := 0; kx < s.Fx; kx++ {
		col := kx * s.DilX() // padded column of tap kx for output column 0
		k.taps = append(k.taps, col%s.Sx*wq+col/s.Sx)
	}
	// Each channel's input rows in ascending order, so every output row
	// meets its kernel rows ky in order.
	gnc, dy := s.GroupNc(), s.DilY()
	for n := 1; n <= MaxRY; n++ {
		for c := 0; c < gnc; c++ {
			for d := 0; d <= (n-1)*s.Sy+(s.Fy-1)*dy; d++ {
				// The weight row feeding block row r from input row d, or -1.
				wrow := func(r int) int {
					if e := d - r*s.Sy; r < n && e >= 0 && e%dy == 0 && e/dy < s.Fy {
						return (c*s.Fy + e/dy) * s.Fx
					}
					return -1
				}
				op := rowOp{src: (c*k.rows + d) * k.rowLen, w0: wrow(0), w1: wrow(1)}
				if op.w0 >= 0 || op.w1 >= 0 {
					k.ops[n-1] = append(k.ops[n-1], op)
				}
			}
		}
	}
	return k
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string {
	return fmt.Sprintf("stencil(rx=%d,ry=%d)", k.plan.RX, k.plan.RY)
}

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// ForwardBatch computes Eq. 2 (§4.3) for every sample, sharing one
// arena-backed staging buffer across the batch when the spec needs one.
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	if len(outs) != len(ins) {
		panic("stencil: ForwardBatch length mismatch")
	}
	if len(ins) == 0 {
		return
	}
	s := k.spec
	conv.CheckWeights(s, w)
	var staged []float32
	if k.stage {
		// Padding, the split's ragged row tails and the 4-float tail slack
		// are never written per sample: zero them once per call so arena
		// reuse can never surface stale values.
		staged = c.Get(s.Nc*k.rows*k.rowLen + 4)
		clear(staged)
	}
	for i, in := range ins {
		conv.CheckInput(s, in)
		conv.CheckOutput(s, outs[i])
		src := in.Data
		if staged != nil {
			k.stageInto(staged, in)
			src = staged
		}
		k.forwardOne(outs[i], src, w.Data)
	}
	if staged != nil {
		c.Put(staged)
	}
}

// stageInto copies in into the staged layout: padded column p of input
// row iy lands at (iy+Py, p mod Sx, p / Sx) — the Eq. 21 transform over
// the zero-bordered row.
func (k *Kernel) stageInto(dst []float32, in *tensor.Tensor) {
	s := k.spec
	wq := k.rowLen / s.Sx
	for ci := 0; ci < s.Nc; ci++ {
		for iy := 0; iy < s.Ny; iy++ {
			row := dst[(ci*k.rows+iy+s.Py)*k.rowLen:][:k.rowLen]
			for ix, v := range in.Row3(ci, iy) {
				p := ix + s.Px
				row[p%s.Sx*wq+p/s.Sx] = v
			}
		}
	}
}

// forwardOne runs the body over one sample: for each feature and block of
// RY output rows, forwardRows reduces the feature's group of channels into
// the block's 4-column register tiles.
func (k *Kernel) forwardOne(out *tensor.Tensor, src, w []float32) {
	s := k.spec
	oy := s.OutY()
	gnc, gnf := s.GroupNc(), s.GroupNf()
	wLen := gnc * s.Fy * s.Fx
	for f := 0; f < s.Nf; f++ {
		cbase := (f / gnf) * gnc
		wf := w[f*wLen : (f+1)*wLen]
		for yb := 0; yb < oy; yb += k.plan.RY {
			n := min(k.plan.RY, oy-yb)
			var o1 []float32
			if n == 2 {
				o1 = out.Row3(f, yb+1)
			}
			in := src[(cbase*k.rows+yb*s.Sy)*k.rowLen:]
			forwardRows(out.Row3(f, yb), o1, in, wf, k.ops[n-1], k.taps, k.plan.TileX)
		}
	}
}

// BackwardInputBatch implements engine.Kernel via the unfold+GEMM delegate
// (this engine is an FP specialist).
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	k.bp.BackwardInputBatch(c, eis, eos, w)
}

// BackwardWeightsBatch implements engine.Kernel via the same delegate.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	k.bp.BackwardWeightsBatch(c, dw, eos, ins)
}

// Generator returns the engine.Generator for the stencil technique.
func Generator() engine.Generator {
	return engine.Generator{
		Name: "stencil",
		New:  func(s conv.Spec) engine.Kernel { return New(s) },
	}
}
