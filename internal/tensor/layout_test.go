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
		c, h, w := dims[0], dims[1], dims[2]
		x, hwc, y := randT(r, c, h, w), New(h, w, c), New(c, h, w)
		CHWToHWCInto(hwc, x)
		HWCToCHWInto(y, hwc)
		if MaxAbsDiff(x, y) != 0 {
			t.Fatalf("CHW->HWC->CHW not identity for %v", dims)
		}
	}
}

func TestCHWToHWCElementMapping(t *testing.T) {
	x := New(2, 3, 4) // C,H,W
	x.Set3(1, 2, 3, 42)
	y := New(3, 4, 2)
	CHWToHWCInto(y, x)
	if y.At3(2, 3, 1) != 42 {
		t.Fatal("element (c=1,y=2,x=3) not mapped to (y=2,x=3,c=1)")
	}
}

func TestFCKKRoundTrip(t *testing.T) {
	r := rng.New(2)
	w, fkkc, back := randT(r, 4, 3, 2, 5), New(4, 2, 5, 3), New(4, 3, 2, 5)
	FCKKToFKKCInto(fkkc, w)
	FKKCToFCKKInto(back, fkkc)
	if MaxAbsDiff(w, back) != 0 {
		t.Fatal("FCKK->FKKC->FCKK not identity")
	}
}

func TestFCKKToFKKCMapping(t *testing.T) {
	w := New(4, 3, 2, 5) // F,C,Ky,Kx
	w.Set4(2, 1, 0, 4, 7)
	y := New(4, 2, 5, 3)
	FCKKToFKKCInto(y, w)
	if y.At4(2, 0, 4, 1) != 7 {
		t.Fatal("element (f=2,c=1,ky=0,kx=4) not mapped to (f=2,ky=0,kx=4,c=1)")
	}
}

func TestLayoutPreservesSumProperty(t *testing.T) {
	// The layout transforms are permutations, so the element sum is
	// invariant.
	r := rng.New(6)
	sum := func(t *Tensor) float64 {
		s := 0.0
		for _, v := range t.Data {
			s += float64(v)
		}
		return s
	}
	if err := quick.Check(func(c4, h4, w4, f4 uint8) bool {
		c, h, w, f := int(c4%4)+1, int(h4%6)+1, int(w4%8)+1, int(f4%3)+1
		x, hwc := randT(r, c, h, w), New(h, w, c)
		CHWToHWCInto(hwc, x)
		wt, fkkc := randT(r, f, c, h, w), New(f, h, w, c)
		FCKKToFKKCInto(fkkc, wt)
		near := func(a, b float64) bool { d := a - b; return d < 1e-3 && d > -1e-3 }
		return near(sum(hwc), sum(x)) && near(sum(fkkc), sum(wt))
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
