package bench

import (
	"fmt"
	"time"

	"spgcnn/internal/ait"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// RunZoo trains every workload-zoo topology for a few steps under the
// planner and reports end-to-end step time plus the per-layer strategy
// verdicts — the generalized-spec counterpart of the Fig. 9 end-to-end
// table: depthwise/grouped, dilated, 1×1-heavy and residual geometries all
// schedule through the same capability-seam-filtered candidate set, so a
// spec no optimized engine claims still trains (via the reference
// fallback) instead of crashing.
func RunZoo(o Options) []Table {
	steps, batch := 2, 4
	if o.full() {
		steps, batch = 8, 8
	}
	w := o.workers()

	t1 := Table{
		Title: "Workload zoo: end-to-end training step under the planner (measured)",
		Note: fmt.Sprintf("%d timed steps after one warmup step (the planner measures and deploys "+
			"during warmup), batch %d, %d workers", steps, batch, w),
		Columns: []string{"Net", "convs", "step ms", "images/s", "conv flops/img"},
	}
	t2 := Table{
		Title: "Workload zoo: per-layer planner selections (measured)",
		Note: "regions are the Fig. 1 dense/sparse placement; strategies are this host's " +
			"measured verdicts over the capability-seam-filtered candidates",
		Columns: []string{"Layer", "spec", "region", "fp strategy", "bp strategy"},
	}

	for _, z := range netdef.Zoo() {
		net, elapsed, err := trainZooNet(z.Src, w, batch, steps)
		if err != nil {
			t1.AddRow(z.Name, "error: "+err.Error(), "", "", "")
			continue
		}
		convs := net.ConvLayers()
		var flops int64
		for _, c := range convs {
			flops += c.Spec().FlopsFP()
		}
		t1.AddRow(z.Name,
			len(convs),
			float64(elapsed)/float64(time.Millisecond)/float64(steps),
			float64(batch*steps)/elapsed.Seconds(),
			flops)
		for _, c := range convs {
			s := c.Spec()
			var fpName, bpName string
			if fp, bp, ok := c.Selections(); ok && fp.Chosen != nil && bp.Chosen != nil {
				fpName, bpName = fp.Chosen.Strategy().Name, bp.Chosen.Strategy().Name
			}
			t2.AddRow(z.Name+"/"+c.Name(),
				s.String(),
				fmt.Sprintf("%v / %v", ait.Classify(s, 0), ait.Classify(s, 1)),
				fpName, bpName)
		}
	}
	return []Table{t1, t2}
}

// trainZooNet builds one zoo net and times `steps` full training steps
// after a warmup step that absorbs the planner's measurement passes.
func trainZooNet(src string, workers, batch, steps int) (*nn.Network, time.Duration, error) {
	def, err := netdef.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	net, err := netdef.Build(def, netdef.BuildOptions{Workers: workers, Seed: 0x500})
	if err != nil {
		return nil, 0, err
	}
	r := rng.New(17)
	ins := make([]*tensor.Tensor, batch)
	ds := make([]*tensor.Tensor, batch)
	for i := range ins {
		ins[i] = tensor.New(net.InDims()...)
		ins[i].FillNormal(r, 0, 1)
		ds[i] = tensor.New(net.OutDims()...)
	}
	var loss nn.SoftmaxXent
	step := func() {
		logits := net.Forward(ins)
		for i := range logits {
			loss.Loss(logits[i], i%10, ds[i])
		}
		net.Backward(ds, ins)
		net.ApplyGrads(0.01, batch)
	}
	step()
	start := time.Now()
	for i := 0; i < steps; i++ {
		step()
	}
	return net, time.Since(start), nil
}
