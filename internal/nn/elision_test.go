package nn

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func bpStrategy(name string, workers int) core.Strategy {
	for _, st := range core.BPStrategies(workers) {
		if st.Name == name {
			return st
		}
	}
	panic("no BP strategy " + name)
}

// twoConvNet builds conv0 -> relu -> conv1 -> relu -> fc with GEMM-in-
// Parallel FP and the named BP strategy on both convolutions.
func twoConvNet(seed uint64, bp string) *Network {
	const workers = 2
	c := exec.New(workers)
	r := rng.New(seed)
	fp, _ := core.StrategyByName("gemm-in-parallel", workers)
	s0 := conv.Square(12, 6, 2, 3, 1)
	c0 := NewConvCtx("conv0", s0, core.FixedPlanner(fp, bpStrategy(bp, workers)), c, r)
	r0 := NewReLU("relu0", c0.OutDims(), workers)
	s1 := conv.Square(10, 4, 6, 3, 2)
	c1 := NewConvCtx("conv1", s1, core.FixedPlanner(fp, bpStrategy(bp, workers)), c, r)
	r1 := NewReLU("relu1", c1.OutDims(), workers)
	fc := NewFCCtx("fc0", r1.OutDims(), 4, c, r)
	return NewNetwork(c0, r0, c1, r1, fc)
}

func mustIdentical(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.Identical(got, want) {
		t.Fatalf("%s differs with the first layer's input gradient elided (max diff %g)",
			what, tensor.MaxAbsDiff(got, want))
	}
}

// TestFirstLayerElisionIsBitIdentical trains a two-conv network three steps
// with layer 0's input gradient elided (what NewNetwork sets up) and a twin
// with it computed: every layer's dW, dB and weights must agree bit for bit,
// for a fused (sparse) and a fallback (dense) BP strategy.
func TestFirstLayerElisionIsBitIdentical(t *testing.T) {
	for _, bp := range []string{"sparse", "gemm-in-parallel"} {
		elided, full := twoConvNet(3, bp), twoConvNet(3, bp)
		if !elided.ConvLayers()[0].first || elided.ConvLayers()[1].first {
			t.Fatal("NewNetwork must mark exactly the layer-0 convolution as first")
		}
		full.ConvLayers()[0].first = false

		ds := &syntheticDS{n: 12, classes: 4, dims: elided.InDims()}
		const batch = 4
		var loss SoftmaxXent
		step := func(n *Network, lo int) {
			ins := make([]*tensor.Tensor, batch)
			dl := make([]*tensor.Tensor, batch)
			for i := range ins {
				ins[i] = tensor.New(n.InDims()...)
				ds.Image(lo+i, ins[i])
				dl[i] = tensor.New(n.OutDims()...)
			}
			logits := n.Forward(ins)
			for i := range ins {
				loss.Loss(logits[i], ds.Label(lo+i), dl[i])
			}
			n.Backward(dl, ins)
		}
		for s := 0; s < 3; s++ {
			step(elided, s*batch)
			step(full, s*batch)
			for l, ce := range elided.ConvLayers() {
				cf := full.ConvLayers()[l]
				mustIdentical(t, bp+" "+ce.Name()+" dW", ce.dW, cf.dW)
				mustIdentical(t, bp+" "+ce.Name()+" dB", ce.dB, cf.dB)
			}
			fe, ff := elided.Layers()[4].(*FC), full.Layers()[4].(*FC)
			mustIdentical(t, bp+" fc0 dW", fe.dW, ff.dW)
			mustIdentical(t, bp+" fc0 dB", fe.dB, ff.dB)
			elided.ApplyGrads(0.05, batch)
			full.ApplyGrads(0.05, batch)
			for l, ce := range elided.ConvLayers() {
				cf := full.ConvLayers()[l]
				mustIdentical(t, bp+" "+ce.Name()+" W", ce.W, cf.W)
				mustIdentical(t, bp+" "+ce.Name()+" B", ce.B, cf.B)
			}
			mustIdentical(t, bp+" fc0 W", fe.W, ff.W)
		}
		// The elided network never wrote its layer-0 gradient slots; the
		// twin did.
		for i := 0; i < batch; i++ {
			if elided.grads[0][i].NNZ() != 0 {
				t.Fatalf("%s: elided network wrote an input gradient for slot %d", bp, i)
			}
			if full.grads[0][i].NNZ() == 0 {
				t.Fatalf("%s: twin computed no input gradient for slot %d", bp, i)
			}
		}
	}
}

// TestElisionFollowsGraphPosition: the mark comes from NewNetwork, so a
// caller walking Layers() itself gets the elision too (its eis stays
// untouched), while the same kind of layer built standalone, or sitting
// deeper in a network, still computes Eq. 3.
func TestElisionFollowsGraphPosition(t *testing.T) {
	net := twoConvNet(5, "sparse")
	r := rng.New(6)
	for l, c := range net.ConvLayers() {
		s := c.Spec()
		ins := []*tensor.Tensor{conv.RandInput(r, s)}
		eos := []*tensor.Tensor{conv.RandOutputError(r, s, 0.8)}
		eis := []*tensor.Tensor{conv.NewInput(s)}
		eis[0].FillUniform(r, 5, 6)
		sentinel := eis[0].Clone()
		net.Layers()[2*l].Backward(eis, eos, ins)
		if untouched := tensor.Identical(eis[0], sentinel); untouched != (l == 0) {
			t.Fatalf("%s: eis untouched = %v, want %v", c.Name(), untouched, l == 0)
		}
	}

	s := conv.Square(12, 6, 2, 3, 1)
	alone := pinnedConv("alone", s, bpStrategy("sparse", 1), 1, r)
	ins := []*tensor.Tensor{conv.RandInput(r, s)}
	eos := []*tensor.Tensor{conv.RandOutputError(r, s, 0.8)}
	eis := []*tensor.Tensor{conv.NewInput(s)}
	alone.Backward(eis, eos, ins)
	want := conv.NewInput(s)
	conv.BackwardInputRef(s, want, eos[0], alone.W)
	if !tensor.AlmostEqual(eis[0], want, 1e-4) {
		t.Fatal("standalone convolution must keep computing its input gradient")
	}
}

// TestBackwardEOReductionMatchesSerial pins the one-pass, worker-fanned EO
// reduction to the serial sample-by-sample arithmetic it replaced: dB and
// the sparsity probe are bit-identical at every worker count.
func TestBackwardEOReductionMatchesSerial(t *testing.T) {
	s := conv.Square(9, 5, 2, 3, 1)
	for _, workers := range []int{1, 2, 3} {
		r := rng.New(8)
		c := pinnedConv("c", s, bpStrategy("gemm-in-parallel", workers), workers, r)
		var ins, eos, eis []*tensor.Tensor
		for _, sp := range []float64{0, 0.3, 0.94, 1, 0.5} {
			ins = append(ins, conv.RandInput(r, s))
			eos = append(eos, conv.RandOutputError(r, s, sp))
			eis = append(eis, conv.NewInput(s))
		}
		wantDB := tensor.New(s.Nf)
		wantSparsity := 0.0
		plane := s.OutY() * s.OutX()
		for pass := 0; pass < 2; pass++ { // dB accumulates across Backward calls
			for _, eo := range eos {
				wantSparsity += eo.Sparsity()
				for f := 0; f < s.Nf; f++ {
					var sum float32
					for _, v := range eo.Data[f*plane : (f+1)*plane] {
						sum += v
					}
					wantDB.Data[f] += sum
				}
			}
			c.Backward(eis, eos, ins)
		}
		if !tensor.Identical(c.dB, wantDB) {
			t.Fatalf("workers=%d: dB not bit-identical to the serial reduction", workers)
		}
		got, ok := c.TakeSparsity()
		if want := wantSparsity / float64(2*len(eos)); !ok || got != want {
			t.Fatalf("workers=%d: TakeSparsity = %v (ok=%v), want exactly %v", workers, got, ok, want)
		}
	}
}
