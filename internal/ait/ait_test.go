package ait

import (
	"math"
	"testing"
	"testing/quick"

	"spgcnn/internal/conv"
	"spgcnn/internal/rng"
)

// table1 reproduces the paper's Table 1: six convolutions
// (Nx=Ny, Nf, Nc, Fx=Fy) with stride 1, their published intrinsic AIT and
// the region pairs they occupy.
var table1 = []struct {
	id           int
	spec         conv.Spec
	intrinsicAIT float64
	dense        Region
	sparse       Region
}{
	{0, conv.Square(32, 32, 32, 4, 1), 362, Region4, Region5},
	{1, conv.Square(64, 1024, 512, 2, 1), 2015, Region0, Region1},
	{2, conv.Square(256, 256, 128, 3, 1), 1510, Region2, Region3},
	{3, conv.Square(128, 128, 64, 7, 1), 3561, Region2, Region3},
	{4, conv.Square(128, 512, 256, 5, 1), 6567, Region2, Region3},
	{5, conv.Square(64, 64, 16, 11, 1), 1921, Region4, Region5},
}

func TestIntrinsicAITMatchesTable1(t *testing.T) {
	for _, row := range table1 {
		got := Intrinsic(row.spec)
		if math.Abs(got-row.intrinsicAIT) > 1 {
			t.Errorf("ID %d: intrinsic AIT = %.1f, paper says %.0f", row.id, got, row.intrinsicAIT)
		}
	}
}

func TestRegionsMatchTable1(t *testing.T) {
	for _, row := range table1 {
		if d := DenseRegion(row.spec); d != row.dense {
			t.Errorf("ID %d: dense region = %v, paper says %v", row.id, d, row.dense)
		}
		if s := SparseRegion(row.spec); s != row.sparse {
			t.Errorf("ID %d: sparse region = %v, paper says %v", row.id, s, row.sparse)
		}
	}
}

func TestUnfoldAITBelowIntrinsic(t *testing.T) {
	// Unfolding can only lose intensity (r <= 1) when kernel windows
	// overlap (stride <= kernel size, the normal CNN regime; a stride
	// larger than the kernel skips input pixels, making |U| < |I|).
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		s := conv.RandSpec(r, 20)
		if s.Sx > s.Fx || s.Sy > s.Fy {
			continue
		}
		if Unfold(s) > Intrinsic(s)+1e-9 {
			t.Fatalf("Unfold AIT %v exceeds intrinsic %v for %v", Unfold(s), Intrinsic(s), s)
		}
		ratio := Ratio(s)
		if ratio <= 0 || ratio > 1+1e-9 {
			t.Fatalf("Ratio = %v out of (0,1] for %v", ratio, s)
		}
	}
}

func TestRatioApproachesOneForFullKernel(t *testing.T) {
	// Fx = Nx, Fy = Ny: the convolution IS a matrix multiply; r ≈ 1.
	s := conv.Spec{Nx: 16, Ny: 16, Nc: 8, Nf: 8, Fx: 16, Fy: 16, Sx: 1, Sy: 1}
	if r := Ratio(s); r < 0.45 {
		t.Fatalf("full-kernel ratio = %v, want near 1 (>= 0.45 given double-count of U)", r)
	}
	// And unfolding should not be the dominant loss: unfold AIT within 2.5x
	// of intrinsic (the residual factor is the U write+read double count).
	if Unfold(s) < Intrinsic(s)/2.5 {
		t.Fatalf("full-kernel unfold AIT %v too far below intrinsic %v", Unfold(s), Intrinsic(s))
	}
}

func TestRatioShrinksWithKernelSizeInSmallKernelRegime(t *testing.T) {
	// §3.1: with Fx ≪ Nx, growing the kernel grows the unfolding
	// replication factor, reducing r.
	r3 := Ratio(conv.Square(256, 64, 32, 3, 1))
	r5 := Ratio(conv.Square(256, 64, 32, 5, 1))
	r7 := Ratio(conv.Square(256, 64, 32, 7, 1))
	if !(r3 > r5 && r5 > r7) {
		t.Fatalf("ratio not decreasing with kernel size: %v, %v, %v", r3, r5, r7)
	}
}

func TestRatioImprovesWithFeatureCount(t *testing.T) {
	// §3.1: as Nf grows, weight accesses dominate and r → 1.
	r32 := Ratio(conv.Square(64, 32, 32, 3, 1))
	r512 := Ratio(conv.Square(64, 512, 32, 3, 1))
	r8k := Ratio(conv.Square(64, 8192, 32, 3, 1))
	if !(r32 < r512 && r512 < r8k) {
		t.Fatalf("ratio not increasing with Nf: %v, %v, %v", r32, r512, r8k)
	}
}

func TestSquareMMAIT(t *testing.T) {
	// §3.2: square n×n MM has AIT 2n/3.
	m := MM{M: 300, K: 300, N: 300}
	if got := m.AIT(); math.Abs(got-200) > 1e-9 {
		t.Fatalf("square MM AIT = %v, want 200", got)
	}
}

func TestAITPerCoreSquareDualCore(t *testing.T) {
	// §3.2's worked example: square MM on 2 cores has AIT/core = n/2.
	m := MM{M: 300, K: 300, N: 300}
	if got := m.AITPerCore(2); math.Abs(got-150) > 1e-9 {
		t.Fatalf("2-core AIT = %v, want 150", got)
	}
}

func TestAITPerCoreMonotone(t *testing.T) {
	// AIT/core decreases monotonically in core count and never exceeds
	// the serial AIT.
	if err := quick.Check(func(m8, k8, n8 uint8) bool {
		m := MM{M: int(m8)%200 + 1, K: int(k8)%200 + 1, N: int(n8)%200 + 1}
		prev := m.AIT()
		for p := 2; p <= 32; p *= 2 {
			cur := m.AITPerCore(p)
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMMOfShapes(t *testing.T) {
	s := conv.Square(36, 64, 3, 5, 1) // CIFAR L0: out 32x32 = 1024 pixels
	pix, taps := 1024, 75
	if m := MMOf(s, FP); m != (MM{M: 64, K: taps, N: pix}) {
		t.Fatalf("FP MM = %+v", m)
	}
	if m := MMOf(s, BPInput); m != (MM{M: taps, K: 64, N: pix}) {
		t.Fatalf("BPInput MM = %+v", m)
	}
	if m := MMOf(s, BPWeights); m != (MM{M: 64, K: pix, N: taps}) {
		t.Fatalf("BPWeights MM = %+v", m)
	}
	// All three phases perform the same flop count.
	if MMOf(s, FP).Flops() != MMOf(s, BPInput).Flops() || MMOf(s, FP).Flops() != MMOf(s, BPWeights).Flops() {
		t.Fatal("phase flop counts differ")
	}
	if MMOf(s, FP).Flops() != s.FlopsFP() {
		t.Fatalf("MM flops %d != spec flops %d", MMOf(s, FP).Flops(), s.FlopsFP())
	}
}

func TestPhaseString(t *testing.T) {
	if FP.String() != "FP" || BPInput.String() != "BP-EI" || BPWeights.String() != "BP-dW" {
		t.Fatal("phase names wrong")
	}
}

func TestGoodputBound(t *testing.T) {
	// §3.3's example: 60 GFlops throughput at 85% sparsity bounds goodput
	// at 9 GFlops.
	if got := GoodputUpperBound(60, 0.85); math.Abs(got-9) > 1e-9 {
		t.Fatalf("goodput bound = %v, want 9", got)
	}
	if GoodputUpperBound(60, -1) != 60 || GoodputUpperBound(60, 2) != 0 {
		t.Fatal("goodput bound clamping wrong")
	}
}

func TestGoodput(t *testing.T) {
	if Goodput(1e9, 0.5) != 2e9 {
		t.Fatal("Goodput arithmetic wrong")
	}
	if Goodput(1e9, 0) != 0 {
		t.Fatal("Goodput with zero time should be 0")
	}
}

func TestClassifyThresholds(t *testing.T) {
	mk := func(nf int) conv.Spec { return conv.Square(32, nf, 8, 3, 1) }
	cases := []struct {
		nf       int
		sparsity float64
		want     Region
	}{
		{2048, 0, Region0}, {2048, 0.9, Region1},
		{256, 0, Region2}, {256, 0.9, Region3},
		{64, 0, Region4}, {64, 0.9, Region5},
		{64, 0.75, Region4}, // threshold is strict
		{1024, 0, Region0},
		{128, 0, Region2},
		{127, 0, Region4},
	}
	for _, tc := range cases {
		if got := Classify(mk(tc.nf), tc.sparsity); got != tc.want {
			t.Errorf("Classify(Nf=%d, s=%.2f) = %v, want %v", tc.nf, tc.sparsity, got, tc.want)
		}
	}
}

func TestBand(t *testing.T) {
	cases := []struct {
		sparsity float64
		want     int
	}{
		{-0.5, 0}, {0, 0}, {0.1, 0}, {0.24, 0},
		{0.25, 1}, {0.49, 1}, {0.5, 2}, {0.74, 2},
		{0.75, 3}, {0.9, 3}, {1, 3}, {1.5, 3},
	}
	for _, c := range cases {
		if got := Band(c.sparsity); got != c.want {
			t.Errorf("Band(%v) = %d, want %d", c.sparsity, got, c.want)
		}
	}
}

func TestPropsRecommendations(t *testing.T) {
	for r := Region0; r <= Region5; r++ {
		p := r.Props()
		if len(p.Recommendations) == 0 {
			t.Errorf("%v has no recommendations", r)
		}
	}
	if !Region0.Props().Scalable || Region2.Props().Scalable {
		t.Fatal("scalability flags wrong")
	}
	if !Region1.Props().GoodputLimited || Region0.Props().GoodputLimited {
		t.Fatal("goodput flags wrong")
	}
	if Region4.Props().SingleCoreFast {
		t.Fatal("Region4 should not be single-core fast")
	}
}

func TestAnalyzeConsistent(t *testing.T) {
	a := Analyze(table1[2].spec)
	if a.IntrinsicAIT != Intrinsic(a.Spec) || a.UnfoldAIT != Unfold(a.Spec) ||
		a.Ratio != Ratio(a.Spec) || a.DenseRegion != Region2 || a.SparseRegion != Region3 {
		t.Fatalf("Analyze inconsistent: %+v", a)
	}
}
