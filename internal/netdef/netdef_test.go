package netdef

import (
	"strings"
	"testing"

	"spgcnn/internal/core"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestParseMinimal(t *testing.T) {
	def, err := Parse(`
name: "tiny"
input { channels: 1 height: 8 width: 8 }
# a comment
layer { name: "c" type: "conv" features: 2 kernel: 3 }
layer { type: "relu" }
layer { name: "f" type: "fc" outputs: 4 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "tiny" {
		t.Fatalf("name = %q", def.Name)
	}
	if def.Input != (InputDef{Channels: 1, Height: 8, Width: 8}) {
		t.Fatalf("input = %+v", def.Input)
	}
	if len(def.Layers) != 3 {
		t.Fatalf("layers = %d", len(def.Layers))
	}
	if def.Layers[0].Field("kernel", 0) != 3 || def.Layers[0].Field("stride", 1) != 1 {
		t.Fatal("conv fields wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{``, "missing or invalid input"},
		{`input { channels: 1 height: 8 width: 8 }`, "no layers"},
		{`bogus: "x"`, "unknown top-level key"},
		{`name: 5`, "quoted string"},
		{`input { channels: 1`, "expected field name"},
		{"input { channels: 1 height: 8 width: 8 }\nlayer { name: \"x\" }", "no type"},
		{`name: "a" @`, "unexpected character"},
		{`name: "unterminated`, "unterminated string"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error = %v, want containing %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestBuildBuiltinsShapeCheck(t *testing.T) {
	for _, src := range []string{MNISTNet, CIFARNet, ImageNet100Net} {
		def, err := Parse(src)
		if err != nil {
			t.Fatalf("%v", err)
		}
		net, err := Build(def, BuildOptions{Workers: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if got := prodInts(net.OutDims()); got != classesOf(def.Name) {
			t.Fatalf("%s: output size %d, want %d", def.Name, got, classesOf(def.Name))
		}
	}
}

func classesOf(name string) int {
	if name == "imagenet100" {
		return 100
	}
	return 10
}

func prodInts(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

func TestBuildFixedStrategy(t *testing.T) {
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	net := MustBuild(MNISTNet, BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 2})
	// Run one tiny forward/backward to prove it executes.
	in := tensor.New(net.InDims()...)
	r := rng.New(3)
	in.FillNormal(r, 0, 1)
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(net.OutDims()...)
	nn.SoftmaxXent{}.Loss(logits[0], 3, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})
	net.ApplyGrads(0.01, 1)
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`input { channels: 1 height: 8 width: 8 }
layer { type: "conv" kernel: 3 }`, "missing field"},
		{`input { channels: 1 height: 8 width: 8 }
layer { type: "conv" features: 2 kernel: 9 }`, "kernel"},
		{`input { channels: 1 height: 8 width: 8 }
layer { type: "warp" }`, "unknown type"},
		{`input { channels: 1 height: 8 width: 8 }
layer { name: "p" type: "pad" size: 1 }`, `layer "p" has unknown type "pad"`},
		{`input { channels: 1 height: 8 width: 8 }
layer { type: "fc" outputs: 4 }
layer { type: "maxpool" kernel: 2 }`, "maxpool needs"},
	}
	for _, tc := range cases {
		def, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q) failed: %v", tc.src, err)
		}
		if _, err := Build(def, BuildOptions{}); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Build(%q) error = %v, want containing %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestDefaultLayerNames(t *testing.T) {
	def, err := Parse(`
input { channels: 1 height: 8 width: 8 }
layer { type: "relu" }
layer { type: "fc" outputs: 2 }
`)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(def, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Layers()[0].Name() != "relu0" || net.Layers()[1].Name() != "fc1" {
		t.Fatalf("default names: %q, %q", net.Layers()[0].Name(), net.Layers()[1].Name())
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Robustness: arbitrary mutations of a valid description must either
	// parse or return an error — never panic.
	base := MNISTNet
	r := rng.New(0xF22)
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Parse panicked: %v", p)
		}
	}()
	for trial := 0; trial < 500; trial++ {
		b := []byte(base)
		// Apply 1-5 random byte mutations (replace, delete, insert).
		for m := r.Intn(5) + 1; m > 0 && len(b) > 0; m-- {
			pos := r.Intn(len(b))
			switch r.Intn(3) {
			case 0:
				b[pos] = byte(r.Intn(128))
			case 1:
				b = append(b[:pos], b[pos+1:]...)
			default:
				b = append(b[:pos], append([]byte{byte(r.Intn(128))}, b[pos:]...)...)
			}
		}
		def, err := Parse(string(b))
		if err == nil && def != nil {
			// Whatever parsed must also build-or-error without panicking.
			_, _ = Build(def, BuildOptions{})
		}
	}
}

func TestAvgPoolAndDropoutLayers(t *testing.T) {
	def, err := Parse(`
input { channels: 2 height: 8 width: 8 }
layer { name: "c" type: "conv" features: 4 kernel: 3 }
layer { name: "a" type: "avgpool" kernel: 2 stride: 2 }
layer { name: "d" type: "dropout" rate: 0.25 }
layer { name: "f" type: "fc" outputs: 3 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Layers[2].FloatField("rate", 0); got != 0.25 {
		t.Fatalf("dropout rate parsed as %v", got)
	}
	net, err := Build(def, BuildOptions{Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// conv: 8->6 (4 feat); avgpool: 6->3; dropout keeps dims; fc: 3.
	if prodInts(net.OutDims()) != 3 {
		t.Fatalf("output dims %v", net.OutDims())
	}
	// A forward/backward pass must run.
	in := tensor.New(net.InDims()...)
	rng.New(2).Float32() // unused warm; keep deterministic imports minimal
	logits := net.Forward([]*tensor.Tensor{in})
	d := tensor.New(net.OutDims()...)
	nn.SoftmaxXent{}.Loss(logits[0], 0, d)
	net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})
}

func TestDropoutRateValidation(t *testing.T) {
	def, err := Parse(`
input { channels: 1 height: 4 width: 4 }
layer { type: "dropout" rate: 1.5 }
layer { type: "fc" outputs: 2 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(def, BuildOptions{}); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
}

func TestFloatFieldPromotion(t *testing.T) {
	l := LayerDef{Fields: map[string]int{"x": 3}, Floats: map[string]float64{"y": 0.5}}
	if l.FloatField("x", 0) != 3 || l.FloatField("y", 0) != 0.5 || l.FloatField("z", 7) != 7 {
		t.Fatal("FloatField resolution wrong")
	}
}

func TestRoundTripTable2Geometry(t *testing.T) {
	// CIFARNet's conv0 must match Table 2's 36,64,3,5,1 exactly.
	net := MustBuild(CIFARNet, BuildOptions{Seed: 4})
	cv := net.ConvLayers()
	if len(cv) != 2 {
		t.Fatalf("CIFAR net has %d conv layers, want 2", len(cv))
	}
	s0 := cv[0].Spec()
	if s0.Nx != 36 || s0.Nf != 64 || s0.Nc != 3 || s0.Fx != 5 || s0.Sx != 1 {
		t.Fatalf("conv0 spec = %v", s0)
	}
	s1 := cv[1].Spec()
	if s1.Nx != 8 || s1.Nf != 64 || s1.Nc != 64 || s1.Fx != 5 || s1.Sx != 1 {
		t.Fatalf("conv1 spec = %v", s1)
	}
}

func TestBuildBlockedAndSparseWeightStrategies(t *testing.T) {
	// The grown FP engines resolve through the same name registry as the
	// paper's strategies as a net-wide FixedStrategy, and the layer runs
	// both phases under it.
	for _, name := range []string{"blocked", "sparse-weight"} {
		st, ok := core.StrategyByName(name, 1)
		if !ok {
			t.Fatalf("StrategyByName(%q) unknown", name)
		}
		net := MustBuild(MNISTNet, BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 2})
		in := tensor.New(net.InDims()...)
		r := rng.New(3)
		in.FillNormal(r, 0, 1)
		logits := net.Forward([]*tensor.Tensor{in})
		d := tensor.New(net.OutDims()...)
		nn.SoftmaxXent{}.Loss(logits[0], 3, d)
		net.Backward([]*tensor.Tensor{d}, []*tensor.Tensor{in})
		net.ApplyGrads(0.01, 1)
		probe := net.ConvLayers()[0].Ctx().Probe()
		for _, phase := range []string{"fp", "bp"} {
			if _, ok := probe.SpanStats("layer/conv0/" + phase + "/" + name); !ok {
				t.Fatalf("%s: conv0 %s did not run under the fixed strategy (spans %v)", name, phase, probe.Spans())
			}
		}
	}
}
