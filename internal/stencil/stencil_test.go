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
	for ry := 1; ry <= maxRY; ry++ {
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
		for ry := 1; ry <= maxRY && ry <= s.OutY(); ry++ {
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

func TestSaxpyKernels(t *testing.T) {
	r := rng.New(5)
	src := make([]float32, 23)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	mk := func() [][]float32 {
		d := make([][]float32, 4)
		for i := range d {
			d[i] = make([]float32, 23)
			for j := range d[i] {
				d[i][j] = float32(i)
			}
		}
		return d
	}
	ws := []float32{0.5, -1, 2, 3}
	for n := 0; n <= 23; n++ {
		for rows := 1; rows <= 4; rows++ {
			got := mk()
			saxpyRows(got[:rows], ws[:rows], src, n)
			want := mk()
			for ri := 0; ri < rows; ri++ {
				for x := 0; x < n; x++ {
					want[ri][x] += ws[ri] * src[x]
				}
			}
			for ri := 0; ri < rows; ri++ {
				for x := 0; x < 23; x++ {
					if got[ri][x] != want[ri][x] {
						t.Fatalf("saxpyRows(rows=%d, n=%d) row %d col %d: %v != %v",
							rows, n, ri, x, got[ri][x], want[ri][x])
					}
				}
			}
		}
	}
}

func TestGatherDotStrided(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{10, 0, 20, 0, 30, 0}
	if got := gatherDot(a, b, 2, 3); got != 10+40+90 {
		t.Fatalf("gatherDot stride 2 = %v, want 140", got)
	}
	if got := gatherDot(a, b[:3], 1, 3); got != 10+0+60 {
		t.Fatalf("gatherDot stride 1 = %v, want 70", got)
	}
}

func TestScatterAxpyStrided(t *testing.T) {
	dst := make([]float32, 6)
	scatterAxpy(dst, []float32{1, 2, 3}, 2, 2, 3)
	want := []float32{2, 0, 4, 0, 6, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("scatterAxpy = %v, want %v", dst, want)
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
