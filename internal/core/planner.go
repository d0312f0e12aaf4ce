package core

import (
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/tensor"
)

// Planner is the strategy-selection seam of §4.4: given a layer geometry,
// an execution context and sample tensors, it produces the deployed
// verdict for one phase. AutoConv delegates every selection to a Planner,
// so where the verdict comes from — a fresh measurement pass, an
// in-memory share with another layer or replica, a persistent plan
// cache, or a constant — is the planner's concern, not the layer's. The
// caching, model-pruning implementation lives in internal/plan;
// FixedPlanner is the one that pins a layer.
type Planner interface {
	// PlanFP selects the forward-propagation strategy for s under c,
	// using ins/w as the sample batch if a measurement pass is needed.
	PlanFP(s conv.Spec, c *exec.Ctx, ins []*tensor.Tensor, w *tensor.Tensor, opts TuneOptions) Planned

	// PlanBP selects the back-propagation strategy for s under c. The
	// sample error gradients eos carry the sparsity of the current
	// training phase; planners key their verdicts on it.
	PlanBP(s conv.Spec, c *exec.Ctx, eos, ins []*tensor.Tensor, w *tensor.Tensor, opts TuneOptions) Planned
}

// Planned is a planner's verdict: the selection (chosen exec plus the
// backing measurement table) and where it came from.
type Planned struct {
	Selection
	// FromCache reports that the verdict was deployed from a prior
	// measurement — no tuning pass ran for this request.
	FromCache bool
}

// FixedPlanner returns the planner of a pinned layer: every FP request is
// answered with fp and every BP request with bp (how the baseline and
// composed configurations of Fig. 9 are built). Like a plan-cache hit it
// builds a fresh Exec per request; unlike one it measures nothing, so its
// selections carry no timing table and no tune span or choice event reaches
// the probe.
func FixedPlanner(fp, bp Strategy) Planner { return fixedPlanner{fp: fp, bp: bp} }

type fixedPlanner struct{ fp, bp Strategy }

func (p fixedPlanner) PlanFP(s conv.Spec, c *exec.Ctx, _ []*tensor.Tensor,
	_ *tensor.Tensor, _ TuneOptions) Planned {
	return Planned{Selection: Selection{Chosen: NewExecCtx(p.fp, s, c)}}
}

func (p fixedPlanner) PlanBP(s conv.Spec, c *exec.Ctx, _, _ []*tensor.Tensor,
	_ *tensor.Tensor, _ TuneOptions) Planned {
	return Planned{Selection: Selection{Chosen: NewExecCtx(p.bp, s, c)}}
}
