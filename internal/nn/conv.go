package nn

import (
	"fmt"
	"math"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/kern"
	"spgcnn/internal/par"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// Conv is a convolution layer with per-feature bias and, fused, the ReLU
// that follows it. Every call runs through one core.AutoConv, which asks
// the layer's planner what to deploy: a plan.Planner tunes (spg-CNN
// scheduling), core.FixedPlanner pins.
type Conv struct {
	name string
	spec conv.Spec
	ctx  *exec.Ctx

	W, B   *tensor.Tensor // weights [Nf][Nc][Fy][Fx], bias [Nf]
	dW, dB *tensor.Tensor
	opt    sgdState // optimizer config (momentum.go)

	exec *core.AutoConv

	// relu fuses a ReLU onto the output (FuseReLU): Forward's epilogue
	// applies it after the bias, and Backward masks the error gradients
	// with ys, the outputs of the last Forward, which are positive exactly
	// where the pre-ReLU outputs were.
	relu bool
	ys   []*tensor.Tensor

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

	// ranFP and ranBP are what each phase's last call ran: the network's
	// layer event names its strategy.
	ranFP, ranBP lastRun
}

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
		name: name,
		spec: s,
		ctx:  ctx,
		W:    conv.NewWeights(s),
		B:    tensor.New(s.Nf),
		dW:   conv.NewWeights(s),
		dB:   tensor.New(s.Nf),
		exec: core.NewAutoConv(s, ctx, pl, buckets...),
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

// FuseReLU makes the layer a convolution followed by a ReLU, for a ReLU
// whose input nothing else reads: its outputs are the rectified ones, and
// its Backward takes the error gradients of those outputs. netdef.Build
// fuses every ReLU that directly follows a conv this way.
func (c *Conv) FuseReLU() { c.relu = true }

// Forward implements Layer: convolution, then per-feature bias and the
// fused ReLU as one epilogue pass over each image (engine.Epilogue).
func (c *Conv) Forward(outs, ins []*tensor.Tensor) {
	ran, planned := c.exec.Forward(outs, ins, c.W, engine.Epilogue{Bias: c.B.Data, ReLU: c.relu})
	c.ranFP = lastRun{ran.Strategy().Name, planned}
	if c.relu {
		c.ys = outs
	}
}

// Backward implements Layer. It also records the error-gradient sparsity
// the Fig. 3b experiment tracks and hands the batch's mean to the scheduler,
// whose BP verdict follows its band. As a network's first layer it computes
// no input gradient and does not write eis. With a fused ReLU, eos are the
// gradients of the rectified outputs: reduceEO masks them in place first,
// which is the ReLU's backward pass.
func (c *Conv) Backward(eis, eos, ins []*tensor.Tensor) {
	var ys []*tensor.Tensor
	if c.relu {
		if len(c.ys) < len(eos) {
			panic(fmt.Sprintf("nn: %s Backward over %d samples after a Forward of %d", c.name, len(eos), len(c.ys)))
		}
		ys = c.ys[:len(eos)]
	}
	sparsity := c.reduceEO(eos, ys)
	if c.first {
		eis = nil
	}
	dwTmp := c.ctx.GetTensor(c.spec.WeightDims()...)
	ran, planned := c.exec.Backward(eis, dwTmp, eos, ins, c.W, sparsity)
	c.ranBP = lastRun{ran.Strategy().Name, planned}
	c.dW.AddScaled(dwTmp, 1)
	c.ctx.PutTensor(dwTmp)
}

// reduceEO makes the layer's one pass over the batch's error gradients: per
// sample, the zero count behind the sparsity probe and the Nf plane sums
// behind dB, fanned over the context's workers. Each plane is walked
// through kern.NonZeros' list of its non-zeros: the zero count is what the
// list leaves out, and the sum adds only the listed values, in ascending
// order. Skipping the zeros keeps the sum's bits: it starts at +0 and can
// only become −0 by adding −0 to −0, so adding ±0 never changes it. The
// per-sample partials are then folded in sample order, so dB and the probe
// are bit-identical to a serial sample-by-sample reduction whatever the
// worker count. It returns the batch-mean sparsity, from the same
// per-sample counts TakeSparsity averages.
//
// Non-nil ys are the fused ReLU's outputs. Each listed element is then
// kept only where kern.Positive(ys[i][q]) and set to +0 in place where not,
// which is the ReLU backward's select; a masked element adds +0 to the sum
// (a no-op, as above) and is not counted as non-zero. So the mask is read
// only at the listed positions — about 6 % of conv0's — and eos, dB and the
// probe are bit for bit what a ReLU layer's backward followed by the
// unfused reduction give. The one difference is an unlisted −0 under the
// mask, which stays −0 where the ReLU would write +0; every kernel reads
// it as a zero (the sparse ones skip it, the dense ones add it to a
// +0-started sum), so no result changes.
func (c *Conv) reduceEO(eos, ys []*tensor.Tensor) float64 {
	nf := c.spec.Nf
	plane := c.spec.OutY() * c.spec.OutX()
	sums := c.ctx.Get(len(eos) * nf)
	if cap(c.eoZeros) < len(eos) {
		c.eoZeros = make([]int, len(eos))
	}
	zeros := c.eoZeros[:len(eos)]
	par.ForChunked(len(eos), c.ctx.Workers(), func(lo, hi int) {
		var idx [256]int32 // one piece of a plane's non-zero list
		for i := lo; i < hi; i++ {
			nnz := 0
			var y []float32
			if ys != nil {
				y = ys[i].Data[:nf*plane]
			}
			for f := 0; f < nf; f++ {
				var sum float32
				for off := f * plane; off < (f+1)*plane; {
					piece := eos[i].Data[off:min((f+1)*plane, off+len(idx))]
					n := kern.NonZeros(idx[:], piece)
					if y == nil {
						for _, q := range idx[:n] {
							sum += piece[q]
						}
						nnz += n
					} else {
						yp := y[off:][:len(piece)]
						for _, q := range idx[:n] {
							m := kern.Positive(yp[q])
							v := math.Float32frombits(math.Float32bits(piece[q]) & m)
							piece[q] = v
							sum += v
							nnz += int(m & 1)
						}
					}
					off += len(piece)
				}
				sums[i*nf+f] = sum
			}
			zeros[i] = nf*plane - nnz
		}
	})
	batch := 0.0
	for i, eo := range eos {
		if len(eo.Data) > 0 {
			sp := float64(zeros[i]) / float64(len(eo.Data))
			c.eoSparsitySum += sp
			batch += sp
		}
		c.eoBatches++
		for f, sum := range sums[i*nf:][:nf] {
			c.dB.Data[f] += sum
		}
	}
	c.ctx.Put(sums)
	return batch / float64(len(eos))
}

// ApplyGrads implements Layer.
func (c *Conv) ApplyGrads(lr float32, batch int) {
	c.opt.step(c.W, c.dW, lr, batch)
	c.opt.step(c.B, c.dB, lr, batch)
	// The in-place weight update invalidates any cached packed operands.
	c.W.Bump()
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
	if c.relu {
		return fmt.Sprintf("Conv(%s: %v, relu)", c.name, c.spec)
	}
	return fmt.Sprintf("Conv(%s: %v)", c.name, c.spec)
}
