package netdef

import (
	"math"
	"strings"
	"testing"

	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// TestZooTrainsEndToEnd trains every zoo topology for two minibatch steps
// under the planner (auto-tuned strategy selection) and checks that the
// loss is finite and every conv layer deployed a strategy.
func TestZooTrainsEndToEnd(t *testing.T) {
	for _, z := range Zoo() {
		z := z
		t.Run(z.Name, func(t *testing.T) {
			def, err := Parse(z.Src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if def.Name != z.Name {
				t.Fatalf("net name %q, want %q", def.Name, z.Name)
			}
			net, err := Build(def, BuildOptions{Workers: 2, Seed: 11})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			r := rng.New(13)
			const batch = 2
			ins := make([]*tensor.Tensor, batch)
			ds := make([]*tensor.Tensor, batch)
			for i := range ins {
				ins[i] = tensor.New(net.InDims()...)
				ins[i].FillNormal(r, 0, 1)
				ds[i] = tensor.New(net.OutDims()...)
			}
			var loss nn.SoftmaxXent
			for step := 0; step < 2; step++ {
				logits := net.Forward(ins)
				for i := range logits {
					l, _ := loss.Loss(logits[i], i%10, ds[i])
					if math.IsNaN(l) || math.IsInf(l, 0) {
						t.Fatalf("step %d: non-finite loss %v", step, l)
					}
				}
				net.Backward(ds, ins)
				net.ApplyGrads(0.01, batch)
			}
			choices := deployed(net)
			for _, c := range net.ConvLayers() {
				if _, ok := choices[c.Name()]; !ok {
					t.Errorf("conv layer %q deployed no strategy", c.Name())
				}
			}
		})
	}
}

// TestParseErrorPositions pins the line:column anchoring of parse errors —
// a bad attribute in a zoo file must be locatable.
func TestParseErrorPositions(t *testing.T) {
	src := "name: \"x\"\ninput { channels: 1 height: 8 width: 8 }\nlayer { type: \"conv\" features: 2 kernel: 3 groups: ! }\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("Parse accepted a bad groups value")
	}
	if !strings.Contains(err.Error(), "line 3:52") {
		t.Errorf("error %q does not carry line:column position line 3:52", err)
	}
}

// TestBuildRejectsBadGroups checks that an invalid groups attribute
// surfaces as a Build error (not an engine-time panic).
func TestBuildRejectsBadGroups(t *testing.T) {
	src := `
input { channels: 3 height: 8 width: 8 }
layer { name: "c" type: "conv" features: 4 kernel: 3 groups: 2 }
layer { type: "fc" outputs: 2 }
`
	def, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := Build(def, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "groups") {
		t.Errorf("Build error = %v, want groups divisibility error", err)
	}
}

// TestBuildRejectsOversizeEffectiveKernel checks the padded/dilated
// geometry validation surfaces through Build.
func TestBuildRejectsOversizeEffectiveKernel(t *testing.T) {
	src := `
input { channels: 1 height: 8 width: 8 }
layer { name: "c" type: "conv" features: 2 kernel: 5 dilation: 3 }
layer { type: "fc" outputs: 2 }
`
	def, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := Build(def, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "effective kernel") {
		t.Errorf("Build error = %v, want effective-kernel error", err)
	}
}
