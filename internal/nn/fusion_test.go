package nn_test

import (
	"fmt"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// fusionNet has a fused conv → ReLU as its first layer (no input gradient)
// and as an inner layer whose output is the logits, so the error gradients
// the test feeds reach that conv's mask unchanged: ±0, NaNs and all.
const fusionNet = `
name: "fusion"
input { channels: 3 height: 12 width: 12 }
layer { name: "conv0" type: "conv" features: 6 kernel: 3 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 2 }
layer { name: "conv1" type: "conv" features: 8 kernel: 3 }
layer { name: "relu1" type: "relu" }
`

// unfusedNet builds fusionNet by hand with explicit nn.ReLU layers, under
// the same planner, and copies fused's parameters into it.
func unfusedNet(t *testing.T, fused *nn.Network, pl core.Planner, workers int) *nn.Network {
	ctx := exec.New(workers)
	r := rng.New(1)
	c0 := nn.NewConvCtx("conv0", conv.Square(12, 6, 3, 3, 1), pl, ctx, r)
	r0 := nn.NewReLU("relu0", c0.OutDims(), workers)
	p0 := nn.NewMaxPool("pool0", r0.OutDims(), 2, 2, workers)
	c1 := nn.NewConvCtx("conv1", conv.Square(5, 8, 6, 3, 1), pl, ctx, r)
	r1 := nn.NewReLU("relu1", c1.OutDims(), workers)
	net := nn.NewNetwork(ctx, c0, r0, p0, c1, r1)
	src := fused.Parameters()
	dst := net.Parameters()
	if len(src) != len(dst) {
		t.Fatalf("fused net has %d parameters, unfused %d", len(src), len(dst))
	}
	for i := range src {
		if src[i].Name != dst[i].Name {
			t.Fatalf("parameter %d: fused %q, unfused %q", i, src[i].Name, dst[i].Name)
		}
		copy(dst[i].Tensor.Data, src[i].Tensor.Data)
		dst[i].Tensor.Bump()
	}
	return net
}

func sameTensors(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tensor.Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestFusedMatchesUnfused pins the fusion netdef.Build performs: the
// netdef-built network, whose convs carry their ReLUs, against the same
// network hand-built with nn.ReLU layers, over three SGD steps. Logits,
// every conv's dW and dB, the inner conv's input gradient and the sparsity
// probe must agree bit for bit, over every input family, every FP and
// every BP strategy, and 1-3 workers. The second step onward runs with
// non-zero biases, so both halves of the epilogue are pinned.
func TestFusedMatchesUnfused(t *testing.T) {
	def, err := netdef.Parse(fusionNet)
	if err != nil {
		t.Fatal(err)
	}
	st := func(name string, workers int) core.Strategy {
		s, ok := core.StrategyByName(name, workers)
		if !ok {
			t.Fatalf("no strategy %q", name)
		}
		return s
	}
	const batch = 5
	for workers := 1; workers <= 3; workers++ {
		var pairs [][2]string
		for _, s := range core.FPStrategies(workers) {
			pairs = append(pairs, [2]string{s.Name, "gemm-in-parallel"})
		}
		for _, s := range core.BPStrategies(workers) {
			pairs = append(pairs, [2]string{"gemm-in-parallel", s.Name})
		}
		for _, pair := range pairs {
			for _, kind := range nn.GlueKinds {
				name := fmt.Sprintf("workers %d fp %s bp %s %s", workers, pair[0], pair[1], kind)
				pl := core.FixedPlanner(st(pair[0], workers), st(pair[1], workers))
				fused, err := netdef.Build(def, netdef.BuildOptions{Workers: workers, Planner: pl, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				if n := len(fused.Layers()); n != 3 {
					t.Fatalf("netdef built %d layers, want conv0, pool0, conv1", n)
				}
				unfused := unfusedNet(t, fused, pl, workers)
				r := rng.New(11)
				for step := 0; step < 3; step++ {
					ins := make([]*tensor.Tensor, batch)
					dF, dU := make([]*tensor.Tensor, batch), make([]*tensor.Tensor, batch)
					for i := range ins {
						ins[i] = tensor.New(fused.InDims()...)
						nn.GlueInput(ins[i], kind, r)
						dF[i] = tensor.New(fused.OutDims()...)
						nn.GlueInput(dF[i], kind, r)
						dU[i] = dF[i].Clone() // the fused conv masks its eos in place
					}
					if !sameTensors(fused.Forward(ins), unfused.Forward(ins)) {
						t.Fatalf("%s step %d: logits differ", name, step)
					}
					fused.Backward(dF, ins)
					unfused.Backward(dU, ins)
					for l, cf := range fused.ConvLayers() {
						cu := unfused.ConvLayers()[l]
						wF, bF := nn.ConvGrads(cf)
						wU, bU := nn.ConvGrads(cu)
						if !tensor.Identical(wF, wU) || !tensor.Identical(bF, bU) {
							t.Fatalf("%s step %d %s: dW or dB differ", name, step, cf.Name())
						}
						sF, okF := cf.TakeSparsity()
						sU, okU := cu.TakeSparsity()
						if sF != sU || okF != okU {
							t.Fatalf("%s step %d %s: sparsity %v (%v), unfused %v (%v)", name, step, cf.Name(), sF, okF, sU, okU)
						}
					}
					// conv1's input gradient: layer 2 fused, 3 unfused.
					if !sameTensors(nn.NetworkGrads(fused, 2)[:batch], nn.NetworkGrads(unfused, 3)[:batch]) {
						t.Fatalf("%s step %d: conv1's input gradients differ", name, step)
					}
					fused.ApplyGrads(0.05, batch)
					unfused.ApplyGrads(0.05, batch)
				}
			}
		}
	}
}
