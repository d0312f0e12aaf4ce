package nn

import (
	"testing"

	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// TestResidualTapAdd checks the Tap/Add pair around a ReLU: forward must
// compute relu(x) + x and backward must route the sum's gradient down
// both paths (2·g where x > 0, 1·g where x < 0).
func TestResidualTapAdd(t *testing.T) {
	dims := []int{2, 3, 3}
	tap := NewTap("tap", dims)
	net := NewNetwork(exec.New(1), tap, NewReLU("relu", dims, 1), NewAdd("add", dims, tap))

	in := tensor.New(dims...)
	r := rng.New(7)
	in.FillNormal(r, 0, 1)
	out := net.Forward([]*tensor.Tensor{in})[0]
	for j, x := range in.Data {
		want := x
		if x > 0 {
			want += x
		}
		if out.Data[j] != want {
			t.Fatalf("forward[%d] = %v, want %v (x=%v)", j, out.Data[j], want, x)
		}
	}

	g := tensor.New(dims...)
	g.FillNormal(r, 0, 1)
	net.Backward([]*tensor.Tensor{g}, []*tensor.Tensor{in})
	// The network's input gradient is the first layer's eis — re-run
	// backward through the layers manually to fetch it: grads[0] is not
	// exported, so check via a second pass on a fresh identical stack.
	tap2 := NewTap("tap", dims)
	relu := NewReLU("relu", dims, 1)
	add := NewAdd("add", dims, tap2)
	a0, a1, a2 := tensor.New(dims...), tensor.New(dims...), tensor.New(dims...)
	tap2.Forward([]*tensor.Tensor{a0}, []*tensor.Tensor{in})
	relu.Forward([]*tensor.Tensor{a1}, []*tensor.Tensor{a0})
	add.Forward([]*tensor.Tensor{a2}, []*tensor.Tensor{a1})
	e2, e1, e0 := tensor.New(dims...), tensor.New(dims...), tensor.New(dims...)
	add.Backward([]*tensor.Tensor{e2}, []*tensor.Tensor{g}, []*tensor.Tensor{a1})
	relu.Backward([]*tensor.Tensor{e1}, []*tensor.Tensor{e2}, []*tensor.Tensor{a0})
	tap2.Backward([]*tensor.Tensor{e0}, []*tensor.Tensor{e1}, []*tensor.Tensor{in})
	for j, x := range in.Data {
		want := g.Data[j]
		if x > 0 {
			want *= 2
		}
		if e0.Data[j] != want {
			t.Fatalf("backward[%d] = %v, want %v (x=%v)", j, e0.Data[j], want, x)
		}
	}
}

// TestAddShapeMismatchPanics pins the constructor check.
func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAdd with mismatched element counts did not panic")
		}
	}()
	NewAdd("add", []int{2, 2}, NewTap("tap", []int{3, 3}))
}
