package nn

import (
	"testing"

	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestFCLayerSpans(t *testing.T) {
	ctx := exec.New(1)
	r := rng.New(3)
	net := NewNetwork(ctx, NewFCCtx("fc0", []int{2, 3, 3}, 4, ctx, r))

	ins := []*tensor.Tensor{tensor.New(2, 3, 3)}
	eos := []*tensor.Tensor{tensor.New(4)}
	ins[0].FillNormal(r, 0, 1)
	eos[0].FillNormal(r, 0, 1)

	net.Forward(ins)
	net.Forward(ins)
	net.Backward(eos, ins)

	fp, ok := ctx.Probe().SpanStats("layer/fc0/fp/gemm-in-parallel")
	if !ok || fp.Calls != 2 {
		t.Fatalf("fp span = %+v ok=%v, want 2 calls", fp, ok)
	}
	bp, ok := ctx.Probe().SpanStats("layer/fc0/bp/gemm-in-parallel")
	if !ok || bp.Calls != 1 {
		t.Fatalf("bp span = %+v ok=%v, want 1 call", bp, ok)
	}
}

func TestTrainerOnStepHook(t *testing.T) {
	net := tinyTrainNet(rng.New(1))
	tr := NewTrainer(net, 0.05, 8)
	var steps []int64
	tr.OnStep = func(s int64) { steps = append(steps, s) }
	ds := &syntheticDS{n: 32, classes: 4, dims: net.InDims()}
	r := rng.New(2)
	tr.TrainEpoch(ds, r)
	// 32 examples / batch 8 = 4 steps.
	if len(steps) != 4 {
		t.Fatalf("OnStep fired %d times, want 4", len(steps))
	}
	for i, s := range steps {
		if s != int64(i+1) {
			t.Fatalf("steps = %v, want 1..4", steps)
		}
	}
	tr.TrainEpoch(ds, r)
	// The counter is monotonic across epochs.
	if steps[len(steps)-1] != 8 {
		t.Fatalf("second epoch ended at step %d, want 8", steps[len(steps)-1])
	}
}
