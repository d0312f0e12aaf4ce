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
		// Shapes the nn constructors would panic on, reported under the
		// name the layer is built with.
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "maxpool" kernel: 9 }`, `layer "maxpool0": maxpool window 9 exceeds its 4x4 input`},
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "avgpool" kernel: 9 }`, `layer "avgpool0": avgpool window 9 exceeds its 4x4 input`},
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "relu" }
layer { type: "maxpool" kernel: 0 }`, `layer "maxpool1": maxpool kernel 0 and stride 0 must be positive`},
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "avgpool" kernel: 2 stride: 0 }`, "stride 0 must be positive"},
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "fc" outputs: 0 }`, `layer "fc0": fc outputs 0 must be positive`},
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "conv" kernel: 3 }`, `layer "conv0" (conv) missing field "features"`},
		// Declared sizes past MaxElems: one field, one tensor, the sum.
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "conv" features: 2 kernel: 3 dilation: 9999999999 }`, "beyond the size cap"},
		{`input { channels: 4096 height: 4096 width: 1 }
layer { type: "relu" }`, "input [4096 4096 1] declares more than"},
		{`input { channels: 1 height: 4 width: 4 }
layer { type: "fc" outputs: 8000000 }`, "declare more than"},
		{`input { channels: 1 height: 1024 width: 1024 }
layer { type: "relu" }
layer { type: "relu" }
layer { type: "relu" }
layer { type: "relu" }
layer { type: "relu" }
layer { type: "relu" }
layer { type: "relu" }
layer { type: "relu" }`, `layer "relu7": the network declares more than`},
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

// TestBuildRejectsFieldsItDoesNotRead: a misspelt field, a decimal in an
// integer field, or a value of the wrong kind is an error naming the layer
// and the field, not a layer built with the default.
func TestBuildRejectsFieldsItDoesNotRead(t *testing.T) {
	const in = "input { channels: 1 height: 8 width: 8 }\n"
	cases := []struct{ layer, wantSub string }{
		{`layer { name: "c" type: "conv" features: 2 kernel: 3 strid: 2 }`, `layer "c" (conv) has no field "strid"`},
		{`layer { name: "c" type: "conv" features: 2 kernel: 3 stride: 2.0 }`, `layer "c" (conv): field "stride" takes an integer`},
		{`layer { name: "p" type: "maxpool" kernel: 2 pad: 1 }`, `layer "p" (maxpool) has no field "pad"`},
		{`layer { name: "r" type: "relu" slope: 0.1 }`, `layer "r" (relu) has no field "slope"`},
		{`layer { name: "f" type: "fc" outputs: 4 from: "x" }`, `layer "f" (fc) has no field "from"`},
		{`layer { name: "f" type: "fc" outputs: "4" }`, `layer "f" (fc): field "outputs" takes a number`},
		{`layer { name: "d" type: "dropout" rate: "0.5" }`, `layer "d" (dropout): field "rate" takes a number`},
		{`layer { name: "a" type: "add" from: 2 }`, `layer "a" (add): field "from" takes a quoted string`},
	}
	for _, tc := range cases {
		def, err := Parse(in + tc.layer)
		if err != nil {
			t.Fatalf("Parse(%q) failed: %v", tc.layer, err)
		}
		if _, err := Build(def, BuildOptions{}); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Build(%q) error = %v, want containing %q", tc.layer, err, tc.wantSub)
		}
	}
	// dropout's rate is a float and takes an integer too.
	for _, rate := range []string{"0.25", "0"} {
		if _, err := Build(mustParse(t, in+`layer { type: "dropout" rate: `+rate+` }`), BuildOptions{}); err != nil {
			t.Errorf("dropout rate %s: %v", rate, err)
		}
	}
}

// TestParseRejectsInputFieldsItDoesNotRead covers the input block.
func TestParseRejectsInputFieldsItDoesNotRead(t *testing.T) {
	for src, want := range map[string]string{
		"input { channels: 1 height: 8 width: 8 depth: 2 }\nlayer { type: \"relu\" }":  `input block has no field "depth"`,
		"input { channels: 1 height: 8.0 width: 8 }\nlayer { type: \"relu\" }":         `input block: field "height" takes an integer`,
		"input { channels: 1 hieght: 8 height: 8 width: 8 }\nlayer { type: \"relu\" }": `input block has no field "hieght"`,
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", src, err, want)
		}
	}
}

// TestCommittedDescriptionsBuild: the seven committed descriptions use
// only fields their layers read and declare less than MaxElems.
func TestCommittedDescriptionsBuild(t *testing.T) {
	srcs := []string{MNISTNet, CIFARNet, ImageNet100Net}
	for _, z := range Zoo() {
		srcs = append(srcs, z.Src)
	}
	if len(srcs) != 7 {
		t.Fatalf("%d committed descriptions, want 7", len(srcs))
	}
	for _, src := range srcs {
		if _, err := Build(mustParse(t, src), BuildOptions{Workers: 1, Seed: 1}); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func mustParse(t *testing.T, src string) *NetDef {
	t.Helper()
	def, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// TestBuildFusesReLUIntoConv pins the fusion rule: a relu directly after a
// conv becomes the conv's (and a from: naming the relu taps the fused
// conv), unless a from: names the conv itself; a relu after anything else,
// or after a fused one, stays a layer.
func TestBuildFusesReLUIntoConv(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // built layers, a fused conv marked +relu
	}{
		{CIFARNet, "conv0+relu pool0 conv1+relu fc0"},
		{ZooResidualNet, "conv0+relu relu0.tap conv1+relu conv2 add1 relu2 pool0 fc0"},
		{`input { channels: 2 height: 8 width: 8 }
layer { name: "c0" type: "conv" features: 2 kernel: 3 }
layer { name: "r0" type: "relu" }
layer { name: "c1" type: "conv" features: 2 kernel: 1 }
layer { name: "a" type: "add" from: "c0" }
layer { name: "r1" type: "relu" }
layer { name: "r2" type: "relu" }
layer { name: "f" type: "fc" outputs: 2 }`, "c0 c0.tap r0 c1 a r1 r2 f"},
	} {
		net, err := Build(mustParse(t, tc.src), BuildOptions{Workers: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, l := range net.Layers() {
			name := l.Name()
			if c, ok := l.(*nn.Conv); ok && strings.HasSuffix(c.String(), ", relu)") {
				name += "+relu"
			}
			got = append(got, name)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("built %q, want %q", strings.Join(got, " "), tc.want)
		}
	}
}
