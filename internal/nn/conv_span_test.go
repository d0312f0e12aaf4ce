package nn

import (
	"strings"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func convFixtures(r *rng.RNG, s conv.Spec) (ins, outs, eos, eis []*tensor.Tensor) {
	ins = []*tensor.Tensor{conv.RandInput(r, s)}
	outs = []*tensor.Tensor{conv.NewOutput(s)}
	eos = []*tensor.Tensor{conv.RandOutputError(r, s, 0.5)}
	eis = []*tensor.Tensor{conv.NewInput(s)}
	return
}

func TestConvLayerSpansFixedStrategy(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	ctx := exec.New(1)
	r := rng.New(1)
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	c := NewConvCtx("c0", s, core.FixedPlanner(st, st), ctx, r)
	ins, outs, eos, eis := convFixtures(r, s)

	c.Forward(outs, ins)
	c.Backward(eis, eos, ins)
	c.Forward(outs, ins)

	fp, ok := ctx.Probe().SpanStats("layer/c0/fp/gemm-in-parallel")
	if !ok || fp.Calls != 2 {
		t.Fatalf("fp span = %+v ok=%v, want 2 calls", fp, ok)
	}
	bp, ok := ctx.Probe().SpanStats("layer/c0/bp/gemm-in-parallel")
	if !ok || bp.Calls != 1 {
		t.Fatalf("bp span = %+v ok=%v, want 1 call", bp, ok)
	}
}

func TestConvLayerSpansAutoResolveToChosenStrategy(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	ctx := exec.New(1)
	r := rng.New(2)
	c := NewConvCtx("c1", s, plan.New(plan.Options{}), ctx, r)
	ins, outs, eos, eis := convFixtures(r, s)

	c.Forward(outs, ins)
	c.Backward(eis, eos, ins)

	var fpSpan, bpSpan string
	for name := range ctx.Probe().Spans() {
		switch {
		case strings.HasPrefix(name, "layer/c1/fp/"):
			fpSpan = name
		case strings.HasPrefix(name, "layer/c1/bp/"):
			bpSpan = name
		}
	}
	if fpSpan == "" || bpSpan == "" {
		t.Fatalf("auto layer spans missing (got %v)", ctx.Probe().Spans())
	}
	// The tuning pass runs before the layer span is recorded, so the
	// strategy level must be the deployed name, never the placeholder.
	if strings.HasSuffix(fpSpan, "/tuning") || strings.HasSuffix(bpSpan, "/tuning") {
		t.Fatalf("span recorded under placeholder strategy: %s %s", fpSpan, bpSpan)
	}
}

// bucketPlanner answers stencil for batch-size bucket 1 and gemm-in-parallel
// for every other bucket, measuring nothing.
type bucketPlanner struct{ core.Planner }

func (bucketPlanner) PlanFP(s conv.Spec, c *exec.Ctx, _ []*tensor.Tensor, _ *tensor.Tensor,
	opts core.TuneOptions) core.Planned {
	name := "gemm-in-parallel"
	if opts.Batch == 1 {
		name = "stencil"
	}
	st, _ := core.StrategyByName(name, c.Workers())
	return core.Planned{Selection: core.Selection{Chosen: core.NewExecCtx(st, s, c)}}
}

// TestConvLayerSpansFollowTheStrategyThatRan: an inference layer whose
// buckets deploy different strategies bills each call's layer span to the
// strategy that executed it, like the core span beneath it.
func TestConvLayerSpansFollowTheStrategyThatRan(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	ctx := exec.New(1)
	r := rng.New(3)
	c := NewConvInferCtx("conv0", s, bucketPlanner{}, []int{1, 2}, ctx, r)
	ins := []*tensor.Tensor{conv.RandInput(r, s), conv.RandInput(r, s)}
	outs := []*tensor.Tensor{conv.NewOutput(s), conv.NewOutput(s)}

	c.Forward(outs[:1], ins[:1])
	c.Forward(outs, ins)

	for _, span := range []string{
		"core/fp/stencil", "core/fp/gemm-in-parallel",
		"layer/conv0/fp/stencil", "layer/conv0/fp/gemm-in-parallel",
	} {
		if st, ok := ctx.Probe().SpanStats(span); !ok || st.Calls != 1 {
			t.Errorf("span %s = %+v ok=%v, want 1 call", span, st, ok)
		}
	}
}
