package spgcnn_test

import (
	"testing"

	"spgcnn"
	"spgcnn/internal/tensor"
)

// The facade tests exercise the library exactly as a downstream user
// would: only through the root package.

func TestKernelsAgreeThroughPublicAPI(t *testing.T) {
	spec := spgcnn.Square(12, 8, 3, 3, 1)
	r := spgcnn.NewRNG(1)
	in := spgcnn.NewInput(spec)
	in.FillNormal(r, 0, 1)
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.5)

	kernels := []spgcnn.Kernel{
		spgcnn.NewUnfoldGEMM(spec, 1),
		spgcnn.NewUnfoldGEMM(spec, 4),
		spgcnn.NewStencil(spec),
		spgcnn.NewSparse(spec, 0),
	}
	var ref *spgcnn.Tensor
	ctx := spgcnn.NewCtx(1)
	for _, k := range kernels {
		out := spgcnn.NewOutput(spec)
		k.ForwardBatch(ctx, []*spgcnn.Tensor{out}, []*spgcnn.Tensor{in}, w)
		if ref == nil {
			ref = out
			continue
		}
		if !tensor.AlmostEqual(ref, out, 1e-3) {
			t.Fatalf("%s disagrees with %s", k.Name(), kernels[0].Name())
		}
	}
}

func TestAnalysisThroughPublicAPI(t *testing.T) {
	a := spgcnn.Analyze(spgcnn.Square(32, 32, 32, 4, 1)) // Table 1 ID 0
	if a.IntrinsicAIT < 361 || a.IntrinsicAIT > 363 {
		t.Fatalf("intrinsic AIT = %v, want ~362", a.IntrinsicAIT)
	}
	if spgcnn.Classify(a.Spec, 0.9) != a.SparseRegion {
		t.Fatal("Classify and Analyze disagree")
	}
}

func TestTrainingThroughPublicAPI(t *testing.T) {
	def, err := spgcnn.ParseNet(spgcnn.MNISTNet)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr := spgcnn.NewTrainer(net, 0.02, 8)
	ds := spgcnn.MNISTData(48)
	r := spgcnn.NewRNG(9)
	first := tr.TrainEpoch(ds, r)
	var last = first
	for e := 0; e < 3; e++ {
		last = tr.TrainEpoch(ds, r)
	}
	if !(last.Loss < first.Loss) {
		t.Fatalf("training did not reduce loss: %v -> %v", first.Loss, last.Loss)
	}
	if last.ImagesPerSec <= 0 {
		t.Fatal("throughput not reported")
	}
	if len(last.ConvSparsity) == 0 {
		t.Fatal("sparsity probe empty")
	}
}

func TestExperimentsThroughPublicAPI(t *testing.T) {
	if len(spgcnn.Experiments()) < 14 {
		t.Fatalf("only %d experiments registered", len(spgcnn.Experiments()))
	}
	e, err := spgcnn.LookupExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	tabs := e.Run(spgcnn.ExperimentOptions{Scale: "quick", Workers: 1})
	if len(tabs) == 0 || len(tabs[0].Rows) != 6 {
		t.Fatal("table1 experiment malformed")
	}
	if tabs[0].Render() == "" || tabs[0].CSV() == "" {
		t.Fatal("rendering empty")
	}
}

func TestAutoConvThroughPublicAPI(t *testing.T) {
	spec := spgcnn.Square(10, 4, 2, 3, 1)
	a := spgcnn.NewAutoConv(spec, 2)
	r := spgcnn.NewRNG(3)
	ins := []*spgcnn.Tensor{spgcnn.NewInput(spec), spgcnn.NewInput(spec)}
	outs := []*spgcnn.Tensor{spgcnn.NewOutput(spec), spgcnn.NewOutput(spec)}
	for _, in := range ins {
		in.FillNormal(r, 0, 1)
	}
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.5)
	a.Forward(outs, ins, w)
	if a.FPSelection().Chosen == nil {
		t.Fatal("AutoConv did not tune through the facade")
	}
}

func TestPaperMachine(t *testing.T) {
	m := spgcnn.PaperMachine()
	if m.Cores != 16 {
		t.Fatalf("paper machine cores = %d", m.Cores)
	}
}
