package enginetest

import (
	"math"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/refconv"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// DiffOptions tunes the differential sweep.
type DiffOptions struct {
	// Trials is the number of random specs exercised (default 12).
	Trials int
	// MaxDim bounds random spec dimensions (default 10).
	MaxDim int
	// Seed seeds the generator (default 0xD1FF).
	Seed uint64
	// Batch is the batch size driven through the batch seam (default 2).
	Batch int
	// Workers is the worker count of the shared context (default 2).
	// Batch-parallel wrappers partition the batch by it, so sweeping it
	// sweeps their chunk boundaries.
	Workers int
	// MaxULP is the per-element unit-in-the-last-place budget (default 256,
	// roughly 3e-5 relative — tight enough to catch wrong math, loose
	// enough for reassociated float32 sums).
	MaxULP uint64
	// RelTol admits elements whose relative error (with an absolute floor
	// of 1) is within it even if they blow the ULP budget. The default
	// 1e-5 absorbs catastrophic cancellation — two reassociated sums that
	// both land near zero are many ULP apart yet equally correct.
	// Transform-domain engines (FFT, Winograd) set it higher: their
	// rounding is structural, not a bug.
	RelTol float64
	// SkipBackward skips BP comparison for FP-only engines.
	SkipBackward bool
	// Sparsities are the EO sparsity levels swept in BP comparisons
	// (default 0, 0.25, 0.5, 0.75, 0.9, 0.99).
	Sparsities []float64
	// WeightSparsities, when non-nil, adds FP comparisons with the weight
	// tensor pruned to each level — the sweep weight-sparse engines use to
	// pin their zero-skipping against the dense reference. nil (the
	// default) runs no weight-sparse FP passes.
	WeightSparsities []float64
	// ExtraSpecs are always swept in addition to the built-in and random
	// geometries (e.g. shapes known to cross a kernel's dispatch
	// thresholds).
	ExtraSpecs []conv.Spec
}

func (o *DiffOptions) fill() {
	if o.Trials == 0 {
		o.Trials = 12
	}
	if o.MaxDim == 0 {
		o.MaxDim = 10
	}
	if o.Seed == 0 {
		o.Seed = 0xD1FF
	}
	if o.Batch == 0 {
		o.Batch = 2
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.MaxULP == 0 {
		o.MaxULP = 256
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-5
	}
	if o.Sparsities == nil {
		o.Sparsities = []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99}
	}
}

// ulpDist is the distance between two float32 values in units in the last
// place: the number of representable values between them. The bit pattern
// is mapped to a monotonic integer line (two's-complement style fold of
// the sign-magnitude float encoding), so +0 and -0 are adjacent and the
// distance is exact across the whole range. NaN on either side is
// infinitely far.
func ulpDist(a, b float32) uint64 {
	if a == b {
		return 0
	}
	fa, fb := float64(a), float64(b)
	if math.IsNaN(fa) || math.IsNaN(fb) {
		return math.MaxUint64
	}
	return uint64(absDelta(orderedBits(a), orderedBits(b)))
}

func orderedBits(f float32) int64 {
	bits := math.Float32bits(f)
	if bits&0x8000_0000 != 0 {
		return -int64(bits &^ 0x8000_0000)
	}
	return int64(bits)
}

func absDelta(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// diffCompare checks got against want element-wise under the ULP budget
// (with optional relative-error escape) and reports the worst offender.
func diffCompare(t *testing.T, label string, s conv.Spec, sparsity float64,
	got, want *tensor.Tensor, opts DiffOptions) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape mismatch for %v", label, s)
	}
	var worst uint64
	worstIdx := -1
	for i := range want.Data {
		d := ulpDist(got.Data[i], want.Data[i])
		if d <= opts.MaxULP {
			continue
		}
		if opts.RelTol > 0 {
			g, w := float64(got.Data[i]), float64(want.Data[i])
			if math.Abs(g-w) <= opts.RelTol*math.Max(math.Max(math.Abs(g), math.Abs(w)), 1) {
				continue
			}
		}
		if d > worst {
			worst, worstIdx = d, i
		}
	}
	if worstIdx >= 0 {
		t.Fatalf("%s: %v sparsity %.2f: element %d differs by %d ULP (got %g, want %g; budget %d ULP, reltol %g)",
			label, s, sparsity, worstIdx, worst, got.Data[worstIdx], want.Data[worstIdx],
			opts.MaxULP, opts.RelTol)
	}
}

// RunDifferential fuzzes gen against ref (normally the serial unfold+GEMM
// lowering — the most direct transcription of Eqs. 2–4) over randomized
// geometries and a sweep of error-gradient sparsities from dense to 0.99.
// Both kernels execute batch-first through one shared, NaN-poisoned
// context, and every output element must agree within a tight ULP budget.
// A kernel with a fused backward entry (engine.FusedBackward) has it held
// to the same reference, with and without the input gradient.
// The reference generator is a parameter rather than an import so engine
// packages (whose tests live in the package itself) can pass
// unfoldgemm.Generator(1) without an import cycle through enginetest.
func RunDifferential(t *testing.T, gen, ref engine.Generator, opts DiffOptions) {
	t.Helper()
	opts.fill()
	r := rng.New(opts.Seed)

	c := exec.New(opts.Workers)
	poisonArena(c)

	specs := []conv.Spec{
		conv.Square(4, 1, 1, 1, 1),
		conv.Square(9, 3, 2, 3, 3),
		conv.Spec{Nx: 11, Ny: 5, Nc: 2, Nf: 3, Fx: 3, Fy: 2, Sx: 2, Sy: 1},
		// Odd prime dims and stride > 1 on both axes: geometries whose
		// GEMM shapes hit every remainder path of the register kernels
		// (partial panels, M/N/K not multiples of the tile widths).
		conv.Spec{Nx: 13, Ny: 7, Nc: 3, Nf: 5, Fx: 3, Fy: 3, Sx: 2, Sy: 2},
		conv.Spec{Nx: 17, Ny: 17, Nc: 1, Nf: 7, Fx: 5, Fy: 1, Sx: 3, Sy: 1},
	}
	specs = append(specs, opts.ExtraSpecs...)
	for i := 0; i < opts.Trials; i++ {
		specs = append(specs, conv.RandSpec(r, opts.MaxDim))
	}

	for _, s := range specs {
		k, kRef := gen.New(s), ref.New(s)
		ins, outs, _, _ := batchFixtures(r, s, opts.Batch, 0)
		w := conv.RandWeights(r, s)

		k.ForwardBatch(c, outs, ins, w)
		wantOuts := make([]*tensor.Tensor, opts.Batch)
		for i := range wantOuts {
			wantOuts[i] = conv.NewOutput(s)
		}
		kRef.ForwardBatch(c, wantOuts, ins, w)
		for i := range outs {
			diffCompare(t, gen.Name+" vs "+ref.Name+" FP", s, 0, outs[i], wantOuts[i], opts)
		}

		for _, ws := range opts.WeightSparsities {
			sw := conv.RandWeights(r, s)
			sw.Sparsify(r, ws)
			sw.Bump()
			k.ForwardBatch(c, outs, ins, sw)
			kRef.ForwardBatch(c, wantOuts, ins, sw)
			for i := range outs {
				diffCompare(t, gen.Name+" vs "+ref.Name+" FP(wsparse)", s, ws, outs[i], wantOuts[i], opts)
			}
		}

		if opts.SkipBackward {
			continue
		}
		for _, sp := range opts.Sparsities {
			_, _, eos, eis := batchFixtures(r, s, opts.Batch, sp)
			for i := range eis {
				eis[i].FillUniform(r, -9, 9) // pre-poison: kernels must overwrite
			}
			k.BackwardInputBatch(c, eis, eos, w)
			dw := conv.NewWeights(s)
			dw.FillUniform(r, -9, 9)
			k.BackwardWeightsBatch(c, dw, eos, ins)

			wantEI := conv.NewInput(s)
			for i := range eis {
				kRef.BackwardInputBatch(c, []*tensor.Tensor{wantEI}, eos[i:i+1], w)
				diffCompare(t, gen.Name+" vs "+ref.Name+" BPI", s, sp, eis[i], wantEI, opts)
			}
			wantDW := conv.NewWeights(s)
			kRef.BackwardWeightsBatch(c, wantDW, eos, ins)
			diffCompare(t, gen.Name+" vs "+ref.Name+" BPW", s, sp, dw, wantDW, opts)

			fk, ok := k.(engine.FusedBackward)
			if !ok {
				continue
			}
			for _, withEI := range []bool{true, false} {
				label := gen.Name + " vs " + ref.Name + " fused"
				var fusedEIs []*tensor.Tensor
				if withEI {
					fusedEIs = eis
					for i := range eis {
						eis[i].FillUniform(r, -9, 9)
					}
				} else {
					label += "(no EI)"
				}
				dw.FillUniform(r, -9, 9)
				fk.BackwardBatch(c, fusedEIs, dw, eos, ins, w)
				for i := range fusedEIs {
					kRef.BackwardInputBatch(c, []*tensor.Tensor{wantEI}, eos[i:i+1], w)
					diffCompare(t, label+" BPI", s, sp, eis[i], wantEI, opts)
				}
				diffCompare(t, label+" BPW", s, sp, dw, wantDW, opts)
			}
		}
	}

	runGeneralSweep(t, c, gen, r, opts)
}

// generalSpecs is the built-in padded/dilated/grouped geometry sweep.
// The Nc=12, Groups=2 entries exercise NCHW8 tail lanes (one full block
// of 8 plus a 4-wide tail) with a group boundary mid-tensor.
func generalSpecs() []conv.Spec {
	return []conv.Spec{
		// Same-padded 3×3, the workload zoo's bread and butter.
		{Nx: 8, Ny: 8, Nc: 2, Nf: 3, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1},
		// Strided with asymmetric padding.
		{Nx: 9, Ny: 7, Nc: 2, Nf: 4, Fx: 3, Fy: 3, Sx: 2, Sy: 2, Px: 2, Py: 1},
		// Dilated, extent-preserving (pad = dilation).
		{Nx: 10, Ny: 10, Nc: 2, Nf: 3, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 2, Py: 2, Dx: 2, Dy: 2},
		// Grouped, no padding.
		{Nx: 8, Ny: 8, Nc: 4, Nf: 6, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Groups: 2},
		// Depthwise (groups == channels) with padding.
		{Nx: 7, Ny: 7, Nc: 5, Nf: 5, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 5},
		// NCHW8 tail lanes (Nc = 12 = 8 + 4) with a group split.
		{Nx: 8, Ny: 8, Nc: 12, Nf: 12, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 2},
		// Everything at once: rectangular, strided, padded, dilated, grouped.
		{Nx: 11, Ny: 9, Nc: 6, Nf: 9, Fx: 3, Fy: 2, Sx: 2, Sy: 1, Px: 1, Py: 2, Dx: 2, Dy: 1, Groups: 3},
	}
}

// runGeneralSweep drives the generalized-spec battery: every padded/
// dilated/grouped geometry the engine claims support for (via the
// engine.Supports capability seam) is compared against the reference
// oracle under the same ULP budget as the plain sweep. Shape-restricted
// engines decline all of these and run none — exactly the planner's
// pruning contract.
func runGeneralSweep(t *testing.T, c *exec.Ctx, gen engine.Generator, r *rng.RNG, opts DiffOptions) {
	t.Helper()
	specs := generalSpecs()
	for i := 0; i < opts.Trials; i++ {
		specs = append(specs, conv.RandSpecGeneral(r, opts.MaxDim))
	}
	oracle := refconv.Generator()
	ran := 0
	for _, s := range specs {
		s = s.Canon()
		if s.Plain() {
			continue // random generator occasionally draws a plain spec
		}
		if !engine.Supports(gen, s) {
			continue
		}
		ran++
		k, kRef := gen.New(s), oracle.New(s)
		ins, outs, _, _ := batchFixtures(r, s, opts.Batch, 0)
		w := conv.RandWeights(r, s)

		k.ForwardBatch(c, outs, ins, w)
		wantOut := conv.NewOutput(s)
		for i := range outs {
			kRef.ForwardBatch(c, []*tensor.Tensor{wantOut}, ins[i:i+1], w)
			diffCompare(t, gen.Name+" vs oracle FP(general)", s, 0, outs[i], wantOut, opts)
		}

		if opts.SkipBackward {
			continue
		}
		for _, sp := range opts.Sparsities {
			_, _, eos, eis := batchFixtures(r, s, opts.Batch, sp)
			for i := range eis {
				eis[i].FillUniform(r, -9, 9)
			}
			k.BackwardInputBatch(c, eis, eos, w)
			dw := conv.NewWeights(s)
			dw.FillUniform(r, -9, 9)
			k.BackwardWeightsBatch(c, dw, eos, ins)

			wantEI := conv.NewInput(s)
			for i := range eis {
				kRef.BackwardInputBatch(c, []*tensor.Tensor{wantEI}, eos[i:i+1], w)
				diffCompare(t, gen.Name+" vs oracle BPI(general)", s, sp, eis[i], wantEI, opts)
			}
			wantDW := conv.NewWeights(s)
			kRef.BackwardWeightsBatch(c, wantDW, eos, ins)
			diffCompare(t, gen.Name+" vs oracle BPW(general)", s, sp, dw, wantDW, opts)
		}
	}
	if plain := engine.Supports(gen, conv.Square(8, 2, 3, 3, 1)); plain && gen.Supports == nil && ran == 0 {
		t.Fatalf("%s: claims support for every spec but the general sweep ran none", gen.Name)
	}
}
