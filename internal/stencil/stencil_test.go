package stencil

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, Generator(), enginetest.Options{
		Trials: 30,
		Seed:   11,
		ExtraSpecs: []conv.Spec{
			conv.Square(28, 20, 1, 5, 1), // MNIST L0
			conv.Square(36, 64, 3, 5, 1), // CIFAR L0
			conv.Square(8, 64, 64, 5, 1), // CIFAR L1
			conv.Square(20, 8, 3, 5, 2),  // strided
			conv.Square(23, 4, 2, 11, 4), // large kernel, large stride
			conv.Square(15, 3, 2, 3, 3),  // stride == kernel
		},
	})
}

func TestDifferentialVsUnfoldGEMM(t *testing.T) {
	enginetest.RunDifferential(t, Generator(), unfoldgemm.Generator(1),
		enginetest.DiffOptions{Seed: 0xD1F4})
}

func TestConformanceEveryRegisterTile(t *testing.T) {
	// Every (rx, ry) register tile the ablation API accepts must be
	// correct, not just the generator's favourite.
	for ry := 1; ry <= MaxRY; ry++ {
		ry := ry
		gen := engine.Generator{
			Name: "stencil-fixed-ry",
			New: func(s conv.Spec) engine.Kernel {
				p := ChoosePlan(s)
				p.RY = ry
				return NewWithPlan(p)
			},
		}
		enginetest.Run(t, gen, enginetest.Options{Trials: 8, Seed: uint64(100 + ry)})
	}
}

func TestConformanceTinyTileX(t *testing.T) {
	// A pathological cache tile (1 column) must still be correct.
	gen := engine.Generator{
		Name: "stencil-tile1",
		New: func(s conv.Spec) engine.Kernel {
			p := ChoosePlan(s)
			p.TileX = 1
			return NewWithPlan(p)
		},
	}
	enginetest.Run(t, gen, enginetest.Options{Trials: 10, Seed: 77})
}

func TestChoosePlanPrefersTallTilesForSmallKernels(t *testing.T) {
	// For a small kernel the generator should pick a multi-row tile (load
	// reuse grows with ry) rather than ry = 1.
	p := ChoosePlan(conv.Square(32, 16, 8, 3, 1))
	if p.RY < 2 {
		t.Fatalf("plan for 3x3 kernel chose ry = %d, want >= 2 (plan %v)", p.RY, p)
	}
	if !tileFeasible(p.RX, p.RY) {
		t.Fatalf("plan exceeds register budget: %v", p)
	}
}

func TestChoosePlanRespectsOutputHeight(t *testing.T) {
	// A 1-row output cannot use a taller tile.
	s := conv.Spec{Nx: 32, Ny: 3, Nc: 2, Nf: 2, Fx: 3, Fy: 3, Sx: 1, Sy: 1}
	p := ChoosePlan(s)
	if p.RY != 1 {
		t.Fatalf("RY = %d for single-row output", p.RY)
	}
}

func TestChoosePlanMinimizesModel(t *testing.T) {
	// The chosen tile must not be beaten by any feasible alternative under
	// the model itself.
	for _, s := range []conv.Spec{
		conv.Square(32, 8, 4, 3, 1),
		conv.Square(64, 8, 4, 11, 1),
		conv.Square(16, 8, 4, 1, 1),
	} {
		p := ChoosePlan(s)
		for ry := 1; ry <= MaxRY && ry <= s.OutY(); ry++ {
			for rx := 1; tileFeasible(rx, ry); rx++ {
				if l := loadsPerMAC(rx, ry, s.Fx, s.Fy, planVW); l < p.LoadsPerMAC-1e-9 {
					t.Fatalf("plan %v beaten by (rx=%d, ry=%d): %.4f < %.4f", p, rx, ry, l, p.LoadsPerMAC)
				}
			}
		}
	}
}

func TestChoosePlanMatchesFig7(t *testing.T) {
	// The paper's Fig. 7 shows the generated basic block for a 1x2 kernel
	// with a register tile of rx = 1, ry = 2. Our generator must make the
	// same choice for that kernel.
	s := conv.Spec{Nx: 16, Ny: 16, Nc: 1, Nf: 1, Fx: 1, Fy: 2, Sx: 1, Sy: 1}
	p := ChoosePlan(s)
	if p.RX != 1 || p.RY != 2 {
		t.Fatalf("plan for Fig. 7's 1x2 kernel = (rx=%d, ry=%d), paper shows (1, 2)", p.RX, p.RY)
	}
}

func TestLoadsPerMACModel(t *testing.T) {
	// Hand check: rx=1, ry=1, 2x1 kernel (Fig. 7's shape, vw=1):
	// loads = (1+2-1)*(1+0) = 2, macs = 2 → 1.0 loads/MAC.
	if got := loadsPerMAC(1, 1, 1, 2, 1); got != 1.0 {
		t.Fatalf("loadsPerMAC(1,1,1x2) = %v, want 1", got)
	}
	// ry=2 shares the middle row: loads = (2+2-1)*1 = 3 for 4 macs.
	if got := loadsPerMAC(1, 2, 1, 2, 1); got != 0.75 {
		t.Fatalf("loadsPerMAC(1,2,1x2) = %v, want 0.75", got)
	}
}

func TestEveryPlanMatchesReference(t *testing.T) {
	// The one body sums each output's taps in the reference (c, ky, kx)
	// order from +0, so every spec — plain, strided, padded, dilated,
	// grouped, depthwise or all at once — at every tile height the body
	// holds and every cache tile must reproduce conv.ForwardRef bit for
	// bit, through a NaN-poisoned arena at batch 2.
	specs := append(enginetest.DiffSpecs(), enginetest.GeneralSpecs()...)
	specs = append(specs,
		conv.Square(28, 20, 1, 5, 1), // MNIST L0
		conv.Square(36, 64, 3, 5, 1), // CIFAR L0
		conv.Square(8, 64, 64, 5, 1), // CIFAR L1
		conv.Square(13, 4, 2, 3, 1),  // OutY 11: a ragged last row block
		conv.Square(64, 16, 3, 7, 2), // BenchmarkForwardStrided
		conv.Square(6, 2, 1, 4, 1),   // OutX 3: narrower than one block
	)
	r := rng.New(0x7A9)
	c := exec.New(1)
	enginetest.PoisonArena(c)
	for _, s := range specs {
		ins := []*tensor.Tensor{conv.RandInput(r, s), conv.RandInput(r, s)}
		w := conv.RandWeights(r, s)
		want := []*tensor.Tensor{conv.NewOutput(s), conv.NewOutput(s)}
		for i := range ins {
			conv.ForwardRef(s, want[i], ins[i], w)
		}
		for ry := 1; ry <= MaxRY; ry++ {
			for _, tileX := range []int{1, 5, ChoosePlan(s).TileX} {
				p := ChoosePlan(s)
				p.RY, p.TileX = ry, tileX
				outs := []*tensor.Tensor{conv.NewOutput(s), conv.NewOutput(s)}
				NewWithPlan(p).ForwardBatch(c, outs, ins, w)
				for i := range outs {
					if !tensor.Identical(outs[i], want[i]) {
						t.Fatalf("%v ry=%d tileX=%d sample %d: not identical to ForwardRef (max diff %g)",
							s, ry, tileX, i, tensor.MaxAbsDiff(outs[i], want[i]))
					}
				}
			}
		}
	}
}

func TestForwardBatchAllocatesNothing(t *testing.T) {
	// The tap and row tables live in the Kernel and the staged input in
	// the arena: after warm-up a batch call allocates nothing.
	for _, s := range []conv.Spec{
		conv.Square(28, 20, 1, 5, 1), // plain: read in place
		conv.Square(20, 8, 3, 5, 2),  // strided: Eq. 21 split
		{Nx: 12, Ny: 12, Nc: 4, Nf: 4, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 4}, // padded depthwise
	} {
		r := rng.New(3)
		ins := []*tensor.Tensor{conv.RandInput(r, s), conv.RandInput(r, s)}
		outs := []*tensor.Tensor{conv.NewOutput(s), conv.NewOutput(s)}
		w := conv.RandWeights(r, s)
		k, c := New(s), exec.New(1)
		k.ForwardBatch(c, outs, ins, w)
		if n := testing.AllocsPerRun(20, func() { k.ForwardBatch(c, outs, ins, w) }); n != 0 {
			t.Errorf("%v: ForwardBatch allocates %v per call, want 0", s, n)
		}
	}
}

func TestStencilMatchesUnfoldGEMM(t *testing.T) {
	// Cross-engine agreement on a real benchmark layer.
	s := conv.Square(36, 64, 3, 5, 1)
	r := rng.New(1)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	a, b := conv.NewOutput(s), conv.NewOutput(s)
	c := exec.New(1)
	New(s).ForwardBatch(c, []*tensor.Tensor{a}, []*tensor.Tensor{in}, w)
	unfoldgemm.New(s, 1).ForwardBatch(c, []*tensor.Tensor{b}, []*tensor.Tensor{in}, w)
	if !tensor.AlmostEqual(a, b, 1e-3) {
		t.Fatalf("stencil and unfold-gemm disagree: max diff %g", tensor.MaxAbsDiff(a, b))
	}
}

func benchStencil(b *testing.B, s conv.Spec) {
	r := rng.New(1)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	outs, ins := []*tensor.Tensor{conv.NewOutput(s)}, []*tensor.Tensor{in}
	k := New(s)
	c := exec.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
	b.ReportMetric(float64(s.FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

func BenchmarkForwardMNISTL0(b *testing.B) { benchStencil(b, conv.Square(28, 20, 1, 5, 1)) }
func BenchmarkForwardCIFARL0(b *testing.B) { benchStencil(b, conv.Square(36, 64, 3, 5, 1)) }
func BenchmarkForwardCIFARL1(b *testing.B) { benchStencil(b, conv.Square(8, 64, 64, 5, 1)) }
func BenchmarkForwardStrided(b *testing.B) { benchStencil(b, conv.Square(64, 16, 3, 7, 2)) }
