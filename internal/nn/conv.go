package nn

import (
	"fmt"
	"math"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/par"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// ConvExecutor abstracts how a convolution layer's batch computations run:
// a fixed core.Exec (one strategy) or a core.AutoConv (spg-CNN's
// self-tuning scheduler). Both satisfy this interface shape; Conv adapts
// them through small funcs to keep the layer independent of the choice.
type ConvExecutor interface {
	Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor)
	EpochEnd()
}

// fixedExec adapts a core.Exec (single strategy for both phases).
type fixedExec struct{ e *core.Exec }

func (f fixedExec) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	f.e.Forward(outs, ins, w)
}
func (f fixedExec) backward(eis []*tensor.Tensor, dw *tensor.Tensor, eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	f.e.Backward(eis, dw, eos, ins, w)
}
func (f fixedExec) EpochEnd() {}
func (f fixedExec) strategyNames() (fp, bp string) {
	n := f.e.Strategy().Name
	return n, n
}
func (f fixedExec) strategyLayouts() (fp, bp tensor.Layout) {
	l := f.e.Strategy().Layout
	return l, l
}

// splitExec runs different fixed strategies for FP and BP — how the
// paper's composed configurations (e.g. Stencil-Kernel FP + Sparse-Kernel
// BP, Fig. 9) are expressed.
type splitExec struct{ fp, bp *core.Exec }

func (s splitExec) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	s.fp.Forward(outs, ins, w)
}
func (s splitExec) backward(eis []*tensor.Tensor, dw *tensor.Tensor, eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	s.bp.Backward(eis, dw, eos, ins, w)
}
func (s splitExec) EpochEnd() {}
func (s splitExec) strategyNames() (fp, bp string) {
	return s.fp.Strategy().Name, s.bp.Strategy().Name
}
func (s splitExec) strategyLayouts() (fp, bp tensor.Layout) {
	return s.fp.Strategy().Layout, s.bp.Strategy().Layout
}

// autoExec adapts core.AutoConv.
type autoExec struct{ a *core.AutoConv }

func (x autoExec) Forward(outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	x.a.Forward(outs, ins, w)
}
func (x autoExec) backward(eis []*tensor.Tensor, dw *tensor.Tensor, eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	x.a.Backward(eis, dw, eos, ins, w)
}
func (x autoExec) EpochEnd() { x.a.EpochEnd() }
func (x autoExec) strategyNames() (fp, bp string) {
	fp, bp = "tuning", "tuning"
	if sel := x.a.FPSelection(); sel.Chosen != nil {
		fp = sel.Chosen.Strategy().Name
	}
	if sel := x.a.BPSelection(); sel.Chosen != nil {
		bp = sel.Chosen.Strategy().Name
	}
	return fp, bp
}
func (x autoExec) strategyLayouts() (fp, bp tensor.Layout) {
	if sel := x.a.FPSelection(); sel.Chosen != nil {
		fp = sel.Chosen.Strategy().Layout
	}
	if sel := x.a.BPSelection(); sel.Chosen != nil {
		bp = sel.Chosen.Strategy().Layout
	}
	return fp, bp
}

type convBackend interface {
	ConvExecutor
	// backward runs the layer's whole backward pass (core.Exec.Backward's
	// contract: nil eis skips the input gradient).
	backward(eis []*tensor.Tensor, dw *tensor.Tensor, eos, ins []*tensor.Tensor, w *tensor.Tensor)
	// strategyNames reports the currently deployed FP and BP strategy
	// names — the third level of the layer/phase/strategy span tree.
	strategyNames() (fp, bp string)
	// strategyLayouts reports the activation layouts those strategies
	// compute in (tensor.NCHW until a blocked strategy is deployed).
	strategyLayouts() (fp, bp tensor.Layout)
}

// Conv is a convolution layer with per-feature bias. The execution
// strategy is pluggable: NewConv uses spg-CNN's auto-tuning scheduler;
// NewConvFixed pins one strategy (how the baseline configurations of
// Fig. 9 are built).
type Conv struct {
	name string
	spec conv.Spec
	ctx  *exec.Ctx

	W, B   *tensor.Tensor // weights [Nf][Nc][Fy][Fx], bias [Nf]
	dW, dB *tensor.Tensor
	opt    sgdState // optimizer config (momentum.go)

	exec convBackend

	// first marks the layer as a network's layer 0 (set by NewNetwork from
	// graph position): nothing reads its input gradient, so Backward skips
	// Eq. 3 and leaves the caller's eis untouched.
	first bool

	// EOSparsity accumulates the observed sparsity of the output-error
	// gradients across Backward calls since the last TakeSparsity — the
	// Fig. 3b probe.
	eoSparsitySum float64
	eoBatches     int
	eoZeros       []int // per-sample zero counts of the current Backward

	// Cached probe span paths "layer/<name>/<phase>/<strategy>". The auto
	// scheduler deploys strategies lazily and may flip BP at epoch
	// boundaries, so the cache is rebuilt until both names are final and
	// invalidated by EpochEnd.
	spanFP, spanBP string
	spansFinal     bool
}

// NewConvCtx builds an auto-tuned convolution layer (spg-CNN scheduling)
// running under the given execution context.
func NewConvCtx(name string, s conv.Spec, c *exec.Ctx, r *rng.RNG) *Conv {
	l := newConvCommon(name, s, c, r)
	l.exec = autoExec{core.NewAutoConv(s, 0, core.AutoOptions{Ctx: l.ctx})}
	return l
}

// NewConv builds an auto-tuned convolution layer with a private context of
// the given worker count.
func NewConv(name string, s conv.Spec, workers int, r *rng.RNG) *Conv {
	return NewConvCtx(name, s, exec.New(workers), r)
}

// NewConvPlannedCtx builds an auto-tuned convolution layer whose strategy
// selection is delegated to pl — typically one plan.Planner shared by every
// layer of a network (and every replica of a data-parallel trainer), so
// layers with identical geometry tune once and deploy everywhere. A nil
// planner degrades to NewConvCtx's measure-every-time behavior.
func NewConvPlannedCtx(name string, s conv.Spec, pl core.Planner, c *exec.Ctx, r *rng.RNG) *Conv {
	l := newConvCommon(name, s, c, r)
	l.exec = autoExec{core.NewAutoConv(s, 0, core.AutoOptions{Ctx: l.ctx, Planner: pl})}
	return l
}

// NewConvFixedCtx builds a convolution layer pinned to one strategy under
// the given execution context.
func NewConvFixedCtx(name string, s conv.Spec, st core.Strategy, c *exec.Ctx, r *rng.RNG) *Conv {
	l := newConvCommon(name, s, c, r)
	l.exec = fixedExec{core.NewExecCtx(st, s, l.ctx)}
	return l
}

// NewConvFixed builds a convolution layer pinned to one strategy with a
// private context of the given worker count.
func NewConvFixed(name string, s conv.Spec, st core.Strategy, workers int, r *rng.RNG) *Conv {
	return NewConvFixedCtx(name, s, st, exec.New(workers), r)
}

// NewConvSplitCtx builds a convolution layer with separate fixed strategies
// for forward and backward propagation, both under the given context.
func NewConvSplitCtx(name string, s conv.Spec, fp, bp core.Strategy, c *exec.Ctx, r *rng.RNG) *Conv {
	l := newConvCommon(name, s, c, r)
	l.exec = splitExec{fp: core.NewExecCtx(fp, s, l.ctx), bp: core.NewExecCtx(bp, s, l.ctx)}
	return l
}

// NewConvSplit builds a split-strategy convolution layer with a private
// context of the given worker count.
func NewConvSplit(name string, s conv.Spec, fp, bp core.Strategy, workers int, r *rng.RNG) *Conv {
	return NewConvSplitCtx(name, s, fp, bp, exec.New(workers), r)
}

func newConvCommon(name string, s conv.Spec, ctx *exec.Ctx, r *rng.RNG) *Conv {
	s.MustValidate()
	if ctx == nil {
		ctx = exec.New(1)
	}
	c := &Conv{
		name: name,
		spec: s,
		ctx:  ctx,
		W:    conv.NewWeights(s),
		B:    tensor.New(s.Nf),
		dW:   conv.NewWeights(s),
		dB:   tensor.New(s.Nf),
	}
	// He initialization: stddev = sqrt(2 / fan-in). Grouped layers see only
	// their group's channel slab, so fan-in is Nc/G taps.
	fanIn := float64(s.GroupNc() * s.Fy * s.Fx)
	c.W.FillNormal(r, 0, float32(math.Sqrt(2/fanIn)))
	// Track weight versions from the start so engines that cache packed
	// operands (unfoldgemm.PackedKernel) reuse them across batches and
	// steps, invalidating only on ApplyGrads.
	c.W.Bump()
	return c
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// Spec returns the convolution geometry.
func (c *Conv) Spec() conv.Spec { return c.spec }

// Ctx returns the execution context the layer runs under.
func (c *Conv) Ctx() *exec.Ctx { return c.ctx }

// InDims implements Layer.
func (c *Conv) InDims() []int { return []int{c.spec.Nc, c.spec.Ny, c.spec.Nx} }

// OutDims implements Layer.
func (c *Conv) OutDims() []int { return []int{c.spec.Nf, c.spec.OutY(), c.spec.OutX()} }

// refreshSpans rebuilds the cached span paths from the currently deployed
// strategies.
func (c *Conv) refreshSpans() {
	fp, bp := c.exec.strategyNames()
	c.spanFP = "layer/" + c.name + "/fp/" + fp
	c.spanBP = "layer/" + c.name + "/bp/" + bp
	c.spansFinal = fp != "tuning" && bp != "tuning"
}

// Forward implements Layer: convolution plus per-feature bias.
func (c *Conv) Forward(outs, ins []*tensor.Tensor) {
	start := time.Now()
	c.exec.Forward(outs, ins, c.W)
	oy, ox := c.spec.OutY(), c.spec.OutX()
	for _, out := range outs {
		for f := 0; f < c.spec.Nf; f++ {
			b := c.B.Data[f]
			if b == 0 {
				continue
			}
			plane := out.Data[f*oy*ox : (f+1)*oy*ox]
			for i := range plane {
				plane[i] += b
			}
		}
	}
	if !c.spansFinal {
		c.refreshSpans()
	}
	c.ctx.Probe().Observe(c.spanFP, time.Since(start).Seconds())
}

// Backward implements Layer. It also records the error-gradient sparsity
// the Fig. 3b experiment tracks. As a network's first layer it computes no
// input gradient and does not write eis.
func (c *Conv) Backward(eis, eos, ins []*tensor.Tensor) {
	start := time.Now()
	c.reduceEO(eos)
	if c.first {
		eis = nil
	}
	dwTmp := c.ctx.GetTensor(c.spec.WeightDims()...)
	c.exec.backward(eis, dwTmp, eos, ins, c.W)
	c.dW.AddScaled(dwTmp, 1)
	c.ctx.PutTensor(dwTmp)
	if !c.spansFinal {
		c.refreshSpans()
	}
	c.ctx.Probe().Observe(c.spanBP, time.Since(start).Seconds())
}

// reduceEO makes the layer's one pass over the batch's error gradients: per
// sample, the zero count behind the sparsity probe and the Nf plane sums
// behind dB, fanned over the context's workers. The per-sample partials are
// then folded in sample order, so dB and the probe are bit-identical to a
// serial sample-by-sample reduction whatever the worker count.
func (c *Conv) reduceEO(eos []*tensor.Tensor) {
	nf := c.spec.Nf
	plane := c.spec.OutY() * c.spec.OutX()
	sums := c.ctx.Get(len(eos) * nf)
	if cap(c.eoZeros) < len(eos) {
		c.eoZeros = make([]int, len(eos))
	}
	zeros := c.eoZeros[:len(eos)]
	par.ForChunked(len(eos), c.ctx.Workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z := 0
			for f := 0; f < nf; f++ {
				var sum float32
				for _, v := range eos[i].Data[f*plane:][:plane] {
					sum += v
					if v == 0 {
						z++
					}
				}
				sums[i*nf+f] = sum
			}
			zeros[i] = z
		}
	})
	for i, eo := range eos {
		if len(eo.Data) > 0 {
			c.eoSparsitySum += float64(zeros[i]) / float64(len(eo.Data))
		}
		c.eoBatches++
		for f, sum := range sums[i*nf:][:nf] {
			c.dB.Data[f] += sum
		}
	}
	c.ctx.Put(sums)
}

// ApplyGrads implements Layer.
func (c *Conv) ApplyGrads(lr float32, batch int) {
	c.opt.step(c.W, c.dW, lr, batch)
	c.opt.step(c.B, c.dB, lr, batch)
	// The in-place weight update invalidates any cached packed operands.
	c.W.Bump()
}

// EpochEnd implements Layer: forwards to the scheduler (BP re-check). The
// re-check may flip the deployed BP strategy, so the cached span paths are
// invalidated.
func (c *Conv) EpochEnd() {
	c.exec.EpochEnd()
	c.spansFinal = false
}

// TakeSparsity returns the mean observed EO sparsity since the last call
// and resets the probe. Returns 0 with ok=false if nothing was recorded.
func (c *Conv) TakeSparsity() (float64, bool) {
	if c.eoBatches == 0 {
		return 0, false
	}
	s := c.eoSparsitySum / float64(c.eoBatches)
	c.eoSparsitySum, c.eoBatches = 0, 0
	return s, true
}

// Layouts reports the activation layouts of the currently deployed FP and
// BP strategies — the planner's layout verdict surfaced at the layer
// level. Until the scheduler deploys, both report the canonical NCHW.
func (c *Conv) Layouts() (fp, bp tensor.Layout) {
	return c.exec.strategyLayouts()
}

// Retune asks the scheduler to re-select the given phase's strategy
// ("fp", "bp", or "" for both) on its next batch — the layer-level re-tune
// trigger the drift observatory's coupler invokes after invalidating the
// planner's cached verdict. Reports false for layers without a scheduler
// (fixed, split or inference-bucketed execution). Must be called from the
// training goroutine (between batches), like EpochEnd.
func (c *Conv) Retune(phase string) bool {
	a, isAuto := c.exec.(autoExec)
	if !isAuto {
		return false
	}
	a.a.Retune(phase)
	c.spansFinal = false // the re-plan may deploy a different strategy
	return true
}

// Selections returns the spg-CNN scheduler's FP and BP measurement tables
// when this layer is auto-tuned (ok=false for fixed-strategy layers or
// before the first tuned batch).
func (c *Conv) Selections() (fp, bp core.Selection, ok bool) {
	a, isAuto := c.exec.(autoExec)
	if !isAuto {
		return core.Selection{}, core.Selection{}, false
	}
	fp = a.a.FPSelection()
	bp = a.a.BPSelection()
	return fp, bp, fp.Chosen != nil || bp.Chosen != nil
}

// String describes the layer.
func (c *Conv) String() string {
	return fmt.Sprintf("Conv(%s: %v)", c.name, c.spec)
}
