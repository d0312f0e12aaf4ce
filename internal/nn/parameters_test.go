package nn

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestParametersOrderAndAliasing(t *testing.T) {
	net := tinyTrainNet(rng.New(1))
	ps := net.Parameters()
	wantNames := []string{"conv0/W", "conv0/B", "fc0/W", "fc0/B"}
	if len(ps) != len(wantNames) {
		t.Fatalf("got %d parameters, want %d", len(ps), len(wantNames))
	}
	for i, want := range wantNames {
		if ps[i].Name != want {
			t.Fatalf("parameter %d = %q, want %q", i, ps[i].Name, want)
		}
	}
	// The tensors alias the live model.
	ps[0].Tensor.Data[0] = 42
	if net.ConvLayers()[0].W.Data[0] != 42 {
		t.Fatal("Parameters does not alias live weights")
	}
}

func TestParametersDeterministicAcrossCalls(t *testing.T) {
	net := tinyTrainNet(rng.New(2))
	a := net.Parameters()
	b := net.Parameters()
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Tensor != b[i].Tensor {
			t.Fatal("Parameters not stable across calls")
		}
	}
}

func TestSelectionsAfterAutoTune(t *testing.T) {
	r := rng.New(3)
	s := conv.Square(8, 3, 2, 3, 1)
	cv := NewConvCtx("conv0", s, plan.New(plan.Options{}), exec.New(1), r)
	re := NewReLU("relu0", cv.OutDims(), 1)
	fc := NewFCCtx("fc0", re.OutDims(), 3, exec.New(1), r)
	net := NewNetwork(cv.Ctx(), cv, re, fc)

	// Before any batch: nothing tuned, nothing reported.
	if _, _, ok := cv.Selections(); ok {
		t.Fatal("selections reported before tuning")
	}

	in := tensor.New(net.InDims()...)
	in.FillNormal(r, 0, 1)
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(net.OutDims()...)
	SoftmaxXent{}.Loss(logits[0], 1, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})

	fp, bp, ok := cv.Selections()
	if !ok || fp.Chosen == nil || bp.Chosen == nil {
		t.Fatalf("conv0 reports no selections after a tuned step (ok=%v)", ok)
	}
	validFP := map[string]bool{}
	for _, st := range core.FPStrategies(1) {
		validFP[st.Name] = true
	}
	validBP := map[string]bool{}
	for _, st := range core.BPStrategies(1) {
		validBP[st.Name] = true
	}
	if fpName, bpName := fp.Chosen.Strategy().Name, bp.Chosen.Strategy().Name; !validFP[fpName] || !validBP[bpName] {
		t.Fatalf("deployed invalid strategies: fp=%s bp=%s", fpName, bpName)
	}
}
