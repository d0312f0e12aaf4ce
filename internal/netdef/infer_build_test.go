package netdef

import (
	"testing"

	"spgcnn/internal/core"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

const inferTestNet = `
name: "tiny"
input { channels: 1 height: 12 width: 12 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "drop0" type: "dropout" rate: 0.5 }
layer { name: "fc0" type: "fc" outputs: 5 }
`

func randBatch(seed uint64, n, c, h, w int) []*tensor.Tensor {
	r := rng.New(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		t := tensor.New(c, h, w)
		t.FillNormal(r, 0, 1)
		out[i] = t
	}
	return out
}

// TestInferenceBuildSharesWeightsAndMatchesTraining pins the serving
// contract: an inference build with parameters ALIASED to a training
// network computes bit-identical logits (same fixed strategy on both
// sides — engines are only ULP-comparable across strategies), runs
// dropout as identity, tracks later weight updates without re-sharing,
// and refuses Backward.
func TestInferenceBuildSharesWeightsAndMatchesTraining(t *testing.T) {
	def, err := Parse(inferTestNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	train, err := Build(def, BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	infer, err := Build(def, BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 99, Inference: true})
	if err != nil {
		t.Fatal(err)
	}
	if !infer.Inference() {
		t.Fatal("inference build not marked forward-only")
	}
	if err := infer.ShareParameters(train); err != nil {
		t.Fatal(err)
	}
	// Compare against the training network in eval mode — its dropout
	// would otherwise mask activations stochastically.
	for _, l := range train.Layers() {
		if d, ok := l.(*nn.Dropout); ok {
			d.SetTraining(false)
		}
	}

	ins := randBatch(3, 4, 1, 12, 12)
	want := append([]float32(nil), flatten(train.Forward(ins))...)
	got := flatten(infer.Forward(ins))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d: inference %v != training %v (bit-identity)", i, got[i], want[i])
		}
	}

	// Aliased parameters follow training-side updates with no re-share.
	train.Parameters()[0].Tensor.Data[0] += 1
	train.Parameters()[0].Tensor.Bump()
	want2 := append([]float32(nil), flatten(train.Forward(ins))...)
	got2 := flatten(infer.Forward(ins))
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("after update, logit %d: inference %v != training %v", i, got2[i], want2[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Backward on an inference network should panic")
		}
	}()
	infer.Backward(ins, ins)
}

func flatten(ts []*tensor.Tensor) []float32 {
	var out []float32
	for _, t := range ts {
		out = append(out, t.Data...)
	}
	return out
}

// TestInferenceBucketsPlanPerBatchSize checks the planner-driven bucket
// path: a bucketed inference conv plans the smallest bucket that fits each
// batch and deploys it for subsequent batches.
func TestInferenceBucketsPlanPerBatchSize(t *testing.T) {
	def, err := Parse(inferTestNet)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(def, BuildOptions{Workers: 1, Seed: 7, Inference: true, InferBuckets: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	net.Forward(randBatch(1, 3, 1, 12, 12)) // ragged: lands in bucket 4
	net.Forward(randBatch(2, 1, 1, 12, 12))
	conv0 := net.ConvLayers()[0]
	got := conv0.PlannedBuckets()
	if len(got) != 2 {
		t.Fatalf("planned buckets %v, want exactly {1, 4}", got)
	}
	for _, bk := range []int{1, 4} {
		if got[bk] == "" {
			t.Errorf("bucket %d has no deployed strategy (have %v)", bk, got)
		}
	}
}
