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

// Conv is a convolution layer with per-feature bias. Every call runs
// through one core.AutoConv, which asks the layer's planner what to deploy:
// a plan.Planner tunes (spg-CNN scheduling), core.FixedPlanner pins.
type Conv struct {
	name string
	spec conv.Spec
	ctx  *exec.Ctx

	W, B   *tensor.Tensor // weights [Nf][Nc][Fy][Fx], bias [Nf]
	dW, dB *tensor.Tensor
	opt    sgdState // optimizer config (momentum.go)

	exec *core.AutoConv

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

	// spans caches the probe span paths "layer/<name>/<phase>/<strategy>":
	// a call is billed to the strategy of the exec that ran it, and the
	// steady-state probe path allocates nothing.
	spans map[spanKey]string
}

type spanKey struct{ phase, strategy string }

// NewConvCtx builds a trainable convolution layer under c whose strategies
// come from pl: typically one plan.Planner shared by every layer of a
// network (and every replica of a data-parallel trainer), so layers with
// identical geometry tune once and deploy everywhere — or
// core.FixedPlanner, which pins the layer.
func NewConvCtx(name string, s conv.Spec, pl core.Planner, c *exec.Ctx, r *rng.RNG) *Conv {
	return newConv(name, s, pl, nil, c, r)
}

// NewConvInferCtx builds a forward-only convolution layer that plans one
// strategy per batch-size bucket through pl. No buckets plans each observed
// batch size as itself, which is what the single bucket 1 does. Backward
// panics — inference layers carry no gradient state.
func NewConvInferCtx(name string, s conv.Spec, pl core.Planner, buckets []int, c *exec.Ctx, r *rng.RNG) *Conv {
	if len(buckets) == 0 {
		buckets = []int{1}
	}
	return newConv(name, s, pl, buckets, c, r)
}

func newConv(name string, s conv.Spec, pl core.Planner, buckets []int, ctx *exec.Ctx, r *rng.RNG) *Conv {
	s.MustValidate()
	if ctx == nil {
		ctx = exec.New(1)
	}
	c := &Conv{
		name:  name,
		spec:  s,
		ctx:   ctx,
		W:     conv.NewWeights(s),
		B:     tensor.New(s.Nf),
		dW:    conv.NewWeights(s),
		dB:    tensor.New(s.Nf),
		exec:  core.NewAutoConv(s, ctx, pl, buckets...),
		spans: make(map[spanKey]string),
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

// observe bills the time since start to the layer span of the exec that ran
// the call.
func (c *Conv) observe(phase string, e *core.Exec, start time.Time) {
	k := spanKey{phase, e.Strategy().Name}
	span, ok := c.spans[k]
	if !ok {
		span = "layer/" + c.name + "/" + phase + "/" + k.strategy
		c.spans[k] = span
	}
	c.ctx.Probe().Observe(span, time.Since(start).Seconds())
}

// Forward implements Layer: convolution plus per-feature bias.
func (c *Conv) Forward(outs, ins []*tensor.Tensor) {
	start := time.Now()
	ran := c.exec.Forward(outs, ins, c.W)
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
	c.observe("fp", ran, start)
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
	ran := c.exec.Backward(eis, dwTmp, eos, ins, c.W)
	c.dW.AddScaled(dwTmp, 1)
	c.ctx.PutTensor(dwTmp)
	c.observe("bp", ran, start)
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

// EpochEnd implements Layer: forwards to the scheduler (BP re-check).
func (c *Conv) EpochEnd() { c.exec.EpochEnd() }

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

// Retune asks the scheduler to re-plan the given phase's strategy ("fp",
// "bp", or "" for both) on its next batch — the layer-level re-tune trigger
// the drift observatory's coupler invokes after invalidating the planner's
// cached verdict. Must be called from the training goroutine (between
// batches), like EpochEnd.
func (c *Conv) Retune(phase string) { c.exec.Retune(phase) }

// Selections returns the scheduler's FP and BP measurement tables. ok is
// false before the first planned batch and for a pinned layer, whose
// planner deploys without measuring.
func (c *Conv) Selections() (fp, bp core.Selection, ok bool) {
	fp, bp = c.exec.FPSelection(), c.exec.BPSelection()
	return fp, bp, len(fp.Timings) > 0 || len(bp.Timings) > 0
}

// PlannedBuckets reports which batch-size buckets of an inference layer
// have a deployed strategy and the strategy each runs — the serving
// analogue of Selections. Nil for a training layer.
func (c *Conv) PlannedBuckets() map[int]string { return c.exec.PlannedBuckets() }

// String describes the layer.
func (c *Conv) String() string {
	return fmt.Sprintf("Conv(%s: %v)", c.name, c.spec)
}
