// Package enginetest provides the shared conformance suite every
// convolution kernel must pass: agreement with the direct reference
// implementations of Eqs. 2–4 over randomized geometries, including strided
// and non-square cases, and over sparse error gradients.
//
// The whole suite drives the batch-first seam through ONE shared exec.Ctx
// whose arena free lists are deliberately poisoned with NaNs between
// checks, so a kernel that reads scratch it did not write, or that leaks
// state between calls through recycled buffers, fails loudly. A final
// interleaving pass runs two differently-shaped kernels alternately
// through the same arena and demands bit-identical outputs.
//
// Engine packages call Run from their tests, so a new kernel automatically
// inherits the full battery.
package enginetest

import (
	"math"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// Options tunes the conformance run.
type Options struct {
	// Trials is the number of random specs exercised (default 20).
	Trials int
	// MaxDim bounds random spec dimensions (default 12).
	MaxDim int
	// Seed seeds the generator (default 0xC0FFEE).
	Seed uint64
	// Tol is the comparison tolerance (default 1e-3, loose enough for
	// float32 kernels that reassociate sums).
	Tol float64
	// SkipBackward skips BP checks for FP-only kernels (the paper's
	// Stencil-Kernel is FP-only).
	SkipBackward bool
	// Sparsities are the EO sparsity levels exercised in BP checks
	// (default 0, 0.5, 0.9, 1.0).
	Sparsities []float64
	// ExtraSpecs are always tested in addition to random ones.
	ExtraSpecs []conv.Spec
	// Batch is the batch size driven through the batch entry points
	// (default 3).
	Batch int
}

func (o *Options) fill() {
	if o.Trials == 0 {
		o.Trials = 20
	}
	if o.MaxDim == 0 {
		o.MaxDim = 12
	}
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	if o.Tol == 0 {
		o.Tol = 1e-3
	}
	if o.Sparsities == nil {
		o.Sparsities = []float64{0, 0.5, 0.9, 1.0}
	}
	if o.Batch == 0 {
		o.Batch = 3
	}
}

// PoisonArena fills the context's free lists with NaN-stuffed buffers
// across a spread of size classes, so any kernel consuming arena scratch
// it did not fully write produces NaNs instead of silently reading zeros.
func PoisonArena(c *exec.Ctx) {
	const perClass = 4
	var bufs [][]float32
	for n := 16; n <= 1<<18; n <<= 2 {
		for i := 0; i < perClass; i++ {
			b := c.Get(n)
			for j := range b {
				b[j] = float32(math.NaN())
			}
			bufs = append(bufs, b)
		}
	}
	for _, b := range bufs {
		c.Put(b)
	}
}

// Run executes the conformance suite for the generator.
func Run(t *testing.T, gen engine.Generator, opts Options) {
	t.Helper()
	opts.fill()
	r := rng.New(opts.Seed)

	// One context for the whole suite: every spec reuses the same arena.
	c := exec.New(2)
	PoisonArena(c)

	specs := append([]conv.Spec(nil), opts.ExtraSpecs...)
	// Hand-picked edge geometries: 1x1 kernel, kernel == input, single
	// channel/feature, rectangular, strided.
	specs = append(specs,
		conv.Square(4, 1, 1, 1, 1),
		conv.Square(4, 2, 3, 4, 1),
		conv.Square(9, 3, 2, 3, 3),
		conv.Spec{Nx: 11, Ny: 5, Nc: 2, Nf: 3, Fx: 3, Fy: 2, Sx: 2, Sy: 1},
		conv.Square(36, 64, 3, 5, 1), // CIFAR L0 geometry
	)
	for i := 0; i < opts.Trials; i++ {
		specs = append(specs, conv.RandSpec(r, opts.MaxDim))
	}

	for _, s := range specs {
		k := gen.New(s)
		if k.Spec() != s {
			t.Fatalf("%s: Spec() = %v, want %v", gen.Name, k.Spec(), s)
		}
		checkForward(t, c, k, r, opts)
		if !opts.SkipBackward {
			for _, sp := range opts.Sparsities {
				checkBackward(t, c, k, r, sp, opts)
			}
		}
	}

	checkInterleaved(t, gen, r, opts)
}

func batchFixtures(r *rng.RNG, s conv.Spec, n int, sparsity float64) (ins, outs, eos, eis []*tensor.Tensor) {
	for i := 0; i < n; i++ {
		ins = append(ins, conv.RandInput(r, s))
		outs = append(outs, conv.NewOutput(s))
		eos = append(eos, conv.RandOutputError(r, s, sparsity))
		eis = append(eis, conv.NewInput(s))
	}
	return
}

func checkForward(t *testing.T, c *exec.Ctx, k engine.Kernel, r *rng.RNG, opts Options) {
	t.Helper()
	s := k.Spec()
	ins, outs, _, _ := batchFixtures(r, s, opts.Batch, 0)
	w := conv.RandWeights(r, s)
	k.ForwardBatch(c, outs, ins, w)
	want := conv.NewOutput(s)
	for i := range ins {
		conv.ForwardRef(s, want, ins[i], w)
		if !tensor.AlmostEqual(outs[i], want, opts.Tol) {
			t.Fatalf("%s: ForwardBatch[%d] differs from reference for %v (max diff %g)",
				k.Name(), i, s, tensor.MaxAbsDiff(outs[i], want))
		}
	}
	// Repeat invocation must be idempotent (arena scratch reuse must not
	// leak state between calls), and bit-identical to the first run.
	first := outs[opts.Batch-1].Clone()
	k.ForwardBatch(c, outs, ins, w)
	if !tensor.Identical(outs[opts.Batch-1], first) {
		t.Fatalf("%s: second ForwardBatch not bit-identical (stale scratch?) for %v", k.Name(), s)
	}

	// A batch of one must reproduce sample 0 of the full batch bit-for-bit:
	// batch-size-1 special cases are serving's common path.
	one := conv.NewOutput(s)
	k.ForwardBatch(c, []*tensor.Tensor{one}, ins[:1], w)
	if !tensor.Identical(one, outs[0]) {
		t.Fatalf("%s: ForwardBatch of one differs from sample 0 of the batch for %v", k.Name(), s)
	}
}

func checkBackward(t *testing.T, c *exec.Ctx, k engine.Kernel, r *rng.RNG, sparsity float64, opts Options) {
	t.Helper()
	s := k.Spec()
	ins, _, eos, eis := batchFixtures(r, s, opts.Batch, sparsity)
	w := conv.RandWeights(r, s)

	for i := range eis {
		eis[i].FillUniform(r, -9, 9) // pre-poison: kernels must overwrite
	}
	k.BackwardInputBatch(c, eis, eos, w)
	wantEI := conv.NewInput(s)
	for i := range eis {
		conv.BackwardInputRef(s, wantEI, eos[i], w)
		if !tensor.AlmostEqual(eis[i], wantEI, opts.Tol) {
			t.Fatalf("%s: BackwardInputBatch[%d] differs for %v at sparsity %.2f (max diff %g)",
				k.Name(), i, s, sparsity, tensor.MaxAbsDiff(eis[i], wantEI))
		}
	}

	gotDW := conv.NewWeights(s)
	gotDW.FillUniform(r, -9, 9) // pre-poison: dw is overwritten, not accumulated
	k.BackwardWeightsBatch(c, gotDW, eos, ins)
	wantDW := conv.NewWeights(s)
	tmp := conv.NewWeights(s)
	for i := range ins {
		conv.BackwardWeightsRef(s, tmp, eos[i], ins[i])
		wantDW.AddScaled(tmp, 1)
	}
	if !tensor.AlmostEqual(gotDW, wantDW, opts.Tol) {
		t.Fatalf("%s: BackwardWeightsBatch differs from per-sample sum for %v at sparsity %.2f (max diff %g)",
			k.Name(), s, sparsity, tensor.MaxAbsDiff(gotDW, wantDW))
	}

	// Batch of one: EI reproduces sample 0 of the full batch bit-for-bit;
	// dW has no per-sample slice in a batch sum, so it is held to the
	// reference; the fused seam, where present, reproduces both.
	oneEI := conv.NewInput(s)
	oneEI.FillUniform(r, -9, 9)
	k.BackwardInputBatch(c, []*tensor.Tensor{oneEI}, eos[:1], w)
	if !tensor.Identical(oneEI, eis[0]) {
		t.Fatalf("%s: BackwardInputBatch of one differs from sample 0 of the batch for %v at sparsity %.2f",
			k.Name(), s, sparsity)
	}
	oneDW := conv.NewWeights(s)
	oneDW.FillUniform(r, -9, 9)
	k.BackwardWeightsBatch(c, oneDW, eos[:1], ins[:1])
	conv.BackwardWeightsRef(s, wantDW, eos[0], ins[0])
	if !tensor.AlmostEqual(oneDW, wantDW, opts.Tol) {
		t.Fatalf("%s: BackwardWeightsBatch of one differs from reference for %v at sparsity %.2f (max diff %g)",
			k.Name(), s, sparsity, tensor.MaxAbsDiff(oneDW, wantDW))
	}
	if fk, ok := k.(engine.FusedBackward); ok {
		fusedEI, fusedDW := conv.NewInput(s), conv.NewWeights(s)
		fusedEI.FillUniform(r, -9, 9)
		fusedDW.FillUniform(r, -9, 9)
		fk.BackwardBatch(c, []*tensor.Tensor{fusedEI}, fusedDW, eos[:1], ins[:1], w)
		if !tensor.Identical(fusedEI, eis[0]) || !tensor.Identical(fusedDW, oneDW) {
			t.Fatalf("%s: fused BackwardBatch of one differs from the pair for %v at sparsity %.2f",
				k.Name(), s, sparsity)
		}
	}
}

// checkInterleaved builds two differently-shaped kernels and alternates
// them through one shared context twice, demanding every pass reproduce
// the first pass bit-for-bit. Because the second round is served entirely
// from arena buffers the other spec just dirtied, any kernel that depends
// on scratch contents (instead of fully writing what it reads) diverges.
func checkInterleaved(t *testing.T, gen engine.Generator, r *rng.RNG, opts Options) {
	t.Helper()
	sA := conv.Square(12, 6, 3, 3, 1)
	sB := conv.Spec{Nx: 10, Ny: 7, Nc: 2, Nf: 4, Fx: 3, Fy: 2, Sx: 2, Sy: 1}
	kA, kB := gen.New(sA), gen.New(sB)

	c := exec.New(2)
	PoisonArena(c)

	type fixture struct {
		k              engine.Kernel
		ins, outs, eis []*tensor.Tensor
		eos            []*tensor.Tensor
		w, dw          *tensor.Tensor
		golden         []*tensor.Tensor // outputs of the first pass
	}
	mk := func(k engine.Kernel) *fixture {
		s := k.Spec()
		f := &fixture{k: k, w: conv.RandWeights(r, s), dw: conv.NewWeights(s)}
		f.ins, f.outs, f.eos, f.eis = batchFixtures(r, s, opts.Batch, 0.5)
		return f
	}
	fixtures := []*fixture{mk(kA), mk(kB)}

	pass := func(f *fixture) {
		f.k.ForwardBatch(c, f.outs, f.ins, f.w)
		if !opts.SkipBackward {
			f.k.BackwardInputBatch(c, f.eis, f.eos, f.w)
			f.k.BackwardWeightsBatch(c, f.dw, f.eos, f.ins)
		}
	}
	snapshot := func(f *fixture) []*tensor.Tensor {
		var g []*tensor.Tensor
		for _, o := range f.outs {
			g = append(g, o.Clone())
		}
		for _, e := range f.eis {
			g = append(g, e.Clone())
		}
		return append(g, f.dw.Clone())
	}

	// Round 1 establishes the golden outputs; rounds 2 and 3 interleave the
	// kernels through the now-dirty shared arena.
	for _, f := range fixtures {
		pass(f)
		f.golden = snapshot(f)
	}
	for round := 2; round <= 3; round++ {
		for _, f := range fixtures {
			pass(f)
			got := snapshot(f)
			for i := range got {
				if !tensor.Identical(got[i], f.golden[i]) {
					t.Fatalf("%s: interleaved round %d not bit-identical to round 1 for %v (shared arena reuse)",
						f.k.Name(), round, f.k.Spec())
				}
			}
		}
	}
}
