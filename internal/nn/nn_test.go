package nn

import (
	"math"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// pinnedConv builds a conv layer pinned to one strategy for both phases
// under a private context.
func pinnedConv(name string, s conv.Spec, st core.Strategy, workers int, r *rng.RNG) *Conv {
	return NewConvCtx(name, s, core.FixedPlanner(st, st), exec.New(workers), r)
}

// serialStrategy is gemm-in-parallel: serial kernels, batch parallel.
func serialStrategy() core.Strategy {
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	return st
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU("relu", []int{4}, 2)
	in := tensor.FromSlice([]float32{-1, 0, 2, -3}, 4)
	out := tensor.New(4)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("ReLU out = %v", out.Data)
		}
	}
	eo := tensor.FromSlice([]float32{5, 6, 7, 8}, 4)
	ei := tensor.New(4)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, nil)
	wantG := []float32{0, 0, 7, 0}
	for i := range wantG {
		if ei.Data[i] != wantG[i] {
			t.Fatalf("ReLU grad = %v", ei.Data)
		}
	}
}

func TestReLUGradientSparsity(t *testing.T) {
	// Roughly half of N(0,1) inputs are negative, so ReLU BP should zero
	// roughly half the gradients — the Fig. 3b mechanism in miniature.
	r := rng.New(1)
	l := NewReLU("relu", []int{10000}, 1)
	in := tensor.New(10000)
	in.FillNormal(r, 0, 1)
	out := tensor.New(10000)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	eo := tensor.New(10000)
	eo.FillUniform(r, 0.5, 1) // dense gradient arriving
	ei := tensor.New(10000)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, nil)
	s := ei.Sparsity()
	if s < 0.45 || s > 0.55 {
		t.Fatalf("ReLU-induced gradient sparsity = %v, want ~0.5", s)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	l := NewMaxPool("pool", []int{1, 4, 4}, 2, 2, 1)
	in := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := tensor.New(1, 2, 2)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("pool out = %v, want %v", out.Data, want)
		}
	}
	eo := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	ei := tensor.New(1, 4, 4)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, nil)
	// Gradients land exactly on the max positions.
	if ei.At3(0, 1, 1) != 1 || ei.At3(0, 1, 3) != 2 || ei.At3(0, 3, 1) != 3 || ei.At3(0, 3, 3) != 4 {
		t.Fatalf("pool grads misrouted: %v", ei.Data)
	}
	if ei.NNZ() != 4 {
		t.Fatalf("pool grad NNZ = %d, want 4", ei.NNZ())
	}
}

func TestMaxPoolOverlapBackwardAccumulates(t *testing.T) {
	l := NewMaxPool("pool", []int{1, 3, 3}, 2, 1, 1)
	in := tensor.New(1, 3, 3)
	in.Set3(0, 1, 1, 9) // center is max of all four windows
	out := tensor.New(1, 2, 2)
	l.Forward([]*tensor.Tensor{out}, []*tensor.Tensor{in})
	eo := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2)
	ei := tensor.New(1, 3, 3)
	l.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, nil)
	if ei.At3(0, 1, 1) != 4 {
		t.Fatalf("overlapping pool grads = %v, want 4 at center", ei.At3(0, 1, 1))
	}
}

func TestSoftmaxXent(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 2, 3}, 3)
	d := tensor.New(3)
	loss, correct := SoftmaxXent{}.Loss(logits, 2, d)
	if !correct {
		t.Fatal("argmax 2 should be correct for label 2")
	}
	// loss = -log softmax(3) = log(e^1+e^2+e^3) - 3
	want := math.Log(math.Exp(1)+math.Exp(2)+math.Exp(3)) - 3
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
	// Gradient sums to zero (softmax minus one-hot).
	var sum float64
	for _, v := range d.Data {
		sum += float64(v)
	}
	if math.Abs(sum) > 1e-5 {
		t.Fatalf("dlogits sum = %v, want 0", sum)
	}
	if d.Data[2] >= 0 {
		t.Fatal("gradient at label should be negative")
	}
}

func TestSoftmaxXentStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 999, 998}, 3)
	d := tensor.New(3)
	loss, _ := SoftmaxXent{}.Loss(logits, 0, d)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss: %v", loss)
	}
}

// tinyNet builds conv(4x4x2 -> 3 feat 2x2) + relu + pool? keep small:
// conv -> relu -> fc(10->classes).
func tinyNet(r *rng.RNG, workers int) *Network {
	s := conv.Square(6, 3, 2, 3, 1) // in 2x6x6, out 3x4x4
	cv := pinnedConv("conv0", s, serialStrategy(), workers, r)
	re := NewReLU("relu0", cv.OutDims(), workers)
	fc := NewFC("fc0", re.OutDims(), 4, workers, r)
	return NewNetwork(cv, re, fc)
}

func TestNetworkShapesChain(t *testing.T) {
	r := rng.New(1)
	net := tinyNet(r, 2)
	if prod(net.OutDims()) != 4 {
		t.Fatalf("OutDims = %v", net.OutDims())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched network did not panic")
		}
	}()
	NewNetwork(
		NewReLU("a", []int{3}, 1),
		NewReLU("b", []int{4}, 1),
	)
}

// TestGradientCheck compares back-propagated weight gradients against
// central-difference numerical gradients on a tiny network — the
// end-to-end correctness test for the whole FP/BP stack (Eqs. 2–4 composed
// through ReLU, FC and softmax).
func TestGradientCheck(t *testing.T) {
	r := rng.New(7)
	net := tinyNet(r, 1)
	cv := net.ConvLayers()[0]
	in := tensor.New(net.InDims()...)
	in.FillNormal(r, 0, 1)
	label := 2

	lossOf := func() float64 {
		logits := net.Forward([]*tensor.Tensor{in})
		d := tensor.New(net.OutDims()...)
		l, _ := SoftmaxXent{}.Loss(logits[0], label, d)
		return l
	}

	// Analytic gradients.
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(net.OutDims()...)
	SoftmaxXent{}.Loss(logits[0], label, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})

	const eps = 1e-2
	checked := 0
	for _, idx := range []int{0, 1, 7, len(cv.W.Data) / 2, len(cv.W.Data) - 1} {
		orig := cv.W.Data[idx]
		cv.W.Data[idx] = orig + eps
		lp := lossOf()
		cv.W.Data[idx] = orig - eps
		lm := lossOf()
		cv.W.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(cv.dW.Data[idx])
		if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("conv weight %d: numeric %v vs analytic %v", idx, numeric, analytic)
		}
		checked++
	}
	// Bias gradient check.
	origB := cv.B.Data[1]
	cv.B.Data[1] = origB + eps
	lp := lossOf()
	cv.B.Data[1] = origB - eps
	lm := lossOf()
	cv.B.Data[1] = origB
	numeric := (lp - lm) / (2 * eps)
	analytic := float64(cv.dB.Data[1])
	if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
		t.Fatalf("conv bias: numeric %v vs analytic %v", numeric, analytic)
	}
	if checked != 5 {
		t.Fatal("gradient check incomplete")
	}
}

func TestFCGradientCheck(t *testing.T) {
	r := rng.New(9)
	fc := NewFC("fc", []int{5}, 3, 1, r)
	net := NewNetwork(fc)
	in := tensor.New(5)
	in.FillNormal(r, 0, 1)
	label := 1

	lossOf := func() float64 {
		logits := net.Forward([]*tensor.Tensor{in})
		d := tensor.New(3)
		l, _ := SoftmaxXent{}.Loss(logits[0], label, d)
		return l
	}
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(3)
	SoftmaxXent{}.Loss(logits[0], label, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})

	const eps = 1e-2
	for _, idx := range []int{0, 4, 9, 14} {
		orig := fc.W.Data[idx]
		fc.W.Data[idx] = orig + eps
		lp := lossOf()
		fc.W.Data[idx] = orig - eps
		lm := lossOf()
		fc.W.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(fc.dW.Data[idx])
		if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("fc weight %d: numeric %v vs analytic %v", idx, numeric, analytic)
		}
	}
}

func TestApplyGradsMovesWeightsAndClears(t *testing.T) {
	r := rng.New(11)
	net := tinyNet(r, 1)
	cv := net.ConvLayers()[0]
	in := tensor.New(net.InDims()...)
	in.FillNormal(r, 0, 1)
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(net.OutDims()...)
	SoftmaxXent{}.Loss(logits[0], 0, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})
	before := cv.W.Clone()
	net.ApplyGrads(0.1, 1)
	if tensor.MaxAbsDiff(before, cv.W) == 0 {
		t.Fatal("ApplyGrads did not move weights")
	}
	if cv.dW.NNZ() != 0 || cv.dB.NNZ() != 0 {
		t.Fatal("ApplyGrads did not clear gradients")
	}
}

func TestConvSparsityProbe(t *testing.T) {
	r := rng.New(13)
	s := conv.Square(6, 2, 1, 3, 1)
	cv := pinnedConv("c", s, serialStrategy(), 1, r)
	eo := conv.RandOutputError(r, s, 0.8)
	ei := conv.NewInput(s)
	in := conv.RandInput(r, s)
	cv.Backward([]*tensor.Tensor{ei}, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
	got, ok := cv.TakeSparsity()
	if !ok {
		t.Fatal("probe recorded nothing")
	}
	if math.Abs(got-eo.Sparsity()) > 1e-9 {
		t.Fatalf("probe = %v, want %v", got, eo.Sparsity())
	}
	if _, ok := cv.TakeSparsity(); ok {
		t.Fatal("probe not reset")
	}
}
