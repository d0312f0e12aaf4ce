package tensor

import (
	"testing"
	"testing/quick"

	"spgcnn/internal/rng"
)

func randT(r *rng.RNG, dims ...int) *Tensor {
	t := New(dims...)
	t.FillUniform(r, -1, 1)
	return t
}

func TestCHWToHWCRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 8, 8}, {2, 1, 9}} {
		x := randT(r, dims[0], dims[1], dims[2])
		y := HWCToCHW(CHWToHWC(x))
		if MaxAbsDiff(x, y) != 0 {
			t.Fatalf("CHW->HWC->CHW not identity for %v", dims)
		}
	}
}

func TestCHWToHWCElementMapping(t *testing.T) {
	x := New(2, 3, 4) // C,H,W
	x.Set3(1, 2, 3, 42)
	y := CHWToHWC(x)
	if y.Dims[0] != 3 || y.Dims[1] != 4 || y.Dims[2] != 2 {
		t.Fatalf("HWC dims = %v, want [3 4 2]", y.Dims)
	}
	if y.At3(2, 3, 1) != 42 {
		t.Fatal("element (c=1,y=2,x=3) not mapped to (y=2,x=3,c=1)")
	}
}

func TestFCKKRoundTrip(t *testing.T) {
	r := rng.New(2)
	w := randT(r, 4, 3, 2, 5)
	back := FKKCToFCKK(FCKKToFKKC(w))
	if MaxAbsDiff(w, back) != 0 {
		t.Fatal("FCKK->FKKC->FCKK not identity")
	}
}

func TestFCKKToFKKCMapping(t *testing.T) {
	w := New(4, 3, 2, 5) // F,C,Ky,Kx
	w.Set4(2, 1, 0, 4, 7)
	y := FCKKToFKKC(w)
	if y.Dims[0] != 4 || y.Dims[1] != 2 || y.Dims[2] != 5 || y.Dims[3] != 3 {
		t.Fatalf("FKKC dims = %v, want [4 2 5 3]", y.Dims)
	}
	if y.At4(2, 0, 4, 1) != 7 {
		t.Fatal("element (f=2,c=1,ky=0,kx=4) not mapped to (f=2,ky=0,kx=4,c=1)")
	}
}

func TestStrideSplitRoundTrip(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct{ c, h, w, sx int }{
		{1, 1, 1, 1}, {2, 4, 8, 2}, {3, 5, 7, 2}, {2, 3, 11, 4}, {1, 2, 9, 3},
	} {
		x := randT(r, tc.c, tc.h, tc.w)
		y := StrideMerge(StrideSplit(x, tc.sx), tc.w)
		if MaxAbsDiff(x, y) != 0 {
			t.Fatalf("StrideSplit/Merge not identity for %+v", tc)
		}
	}
}

func TestStrideSplitEq21(t *testing.T) {
	// Verify the paper's Eq. 21: I[c][y][x] -> I[c][y][x mod sx][x/sx].
	x := New(1, 1, 7)
	for i := 0; i < 7; i++ {
		x.Data[i] = float32(i)
	}
	y := StrideSplit(x, 3)
	// y dims: [1][1][3][3]
	if y.Dims[2] != 3 || y.Dims[3] != 3 {
		t.Fatalf("split dims = %v", y.Dims)
	}
	// x=5 -> s=2, x'=1
	if y.At4(0, 0, 2, 1) != 5 {
		t.Fatalf("element 5 mapped incorrectly: got %v", y.At4(0, 0, 2, 1))
	}
	// Zero padding at s=2, x'=2 (would be x=8, past the end).
	if y.At4(0, 0, 2, 2) != 0 {
		t.Fatal("padding not zero")
	}
}

func TestPadCropRoundTrip(t *testing.T) {
	r := rng.New(4)
	x := randT(r, 3, 5, 6)
	p := Pad(x, 2, 1)
	if p.Dims[1] != 9 || p.Dims[2] != 8 {
		t.Fatalf("padded dims = %v", p.Dims)
	}
	// Border must be zero.
	if p.At3(0, 0, 0) != 0 || p.At3(2, 8, 7) != 0 {
		t.Fatal("padding border not zero")
	}
	back := CropGrad(p, 2, 1)
	if MaxAbsDiff(x, back) != 0 {
		t.Fatal("Pad/CropGrad not identity on interior")
	}
}

func TestPadZeroIsIdentity(t *testing.T) {
	r := rng.New(5)
	x := randT(r, 2, 3, 4)
	p := Pad(x, 0, 0)
	if MaxAbsDiff(x, p) != 0 {
		t.Fatal("Pad(0,0) changed data")
	}
}

func TestLayoutPreservesSumProperty(t *testing.T) {
	// All layout transforms are permutations (possibly padding with
	// zeros), so the element sum is invariant.
	r := rng.New(6)
	sum := func(t *Tensor) float64 {
		s := 0.0
		for _, v := range t.Data {
			s += float64(v)
		}
		return s
	}
	if err := quick.Check(func(c4, h4, w4, s2 uint8) bool {
		c, h, w := int(c4%4)+1, int(h4%6)+1, int(w4%8)+1
		sx := int(s2%3) + 1
		x := randT(r, c, h, w)
		s0 := sum(x)
		near := func(a, b float64) bool { d := a - b; return d < 1e-3 && d > -1e-3 }
		return near(sum(CHWToHWC(x)), s0) && near(sum(StrideSplit(x, sx)), s0) && near(sum(Pad(x, 1, 2)), s0)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
