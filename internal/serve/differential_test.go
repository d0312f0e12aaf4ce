package serve

import (
	"bytes"
	"sync"
	"testing"

	"spgcnn/internal/core"
	"spgcnn/internal/netdef"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

const diffNet = `
name: "difftiny"
input { channels: 1 height: 14 width: 14 }
layer { name: "conv0" type: "conv" features: 6 kernel: 3 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "fc0" type: "fc" outputs: 7 }
`

// pinnedPlanner returns a planner whose FP candidate set is exactly one
// strategy, so the full per-bucket planning machinery runs while the
// deployed engine is bit-comparable to a training-side fixed exec of the
// same strategy. (Engines are NOT bit-identical across strategies — only
// ULP-comparable — so differential tests pin both sides to one.)
func pinnedPlanner(st core.Strategy) *plan.Planner {
	return plan.New(plan.Options{
		FP:   func(int) []core.Strategy { return []core.Strategy{st} },
		BP:   func(int) []core.Strategy { return []core.Strategy{st} },
		Tune: core.TuneOptions{Reps: 1},
	})
}

func randInputs(seed uint64, n int, dims []int) []*tensor.Tensor {
	r := rng.New(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		t := tensor.New(dims...)
		t.FillNormal(r, 0, 1)
		out[i] = t
	}
	return out
}

// TestServeForwardBitIdenticalToTraining pins the serving contract: for
// the same checkpoint and the same strategy, the serve path (bucketed
// planning, weight sharing across replicas, ragged-batch padding) returns
// bit-identical logits to the training network's Forward — for every
// batch size 1..max, on every replica. Padding rows in ragged buckets
// must not leak into real outputs.
func TestServeForwardBitIdenticalToTraining(t *testing.T) {
	def, err := netdef.Parse(diffNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.StrategyByName("gemm-in-parallel", 1)

	// Training side: fixed strategy, seeded weights, saved checkpoint.
	train, err := netdef.Build(def, netdef.BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := train.Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Serving side: different init seed — the checkpoint must fully
	// determine the outputs — with per-bucket planning over a pinned
	// candidate set and 2 weight-sharing replicas.
	const maxBatch = 8
	model, err := NewModel(def, ModelConfig{
		Replicas: 2,
		Buckets:  DefaultBuckets(maxBatch),
		Planner:  pinnedPlanner(st),
		Seed:     999,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.LoadWeights(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}

	for b := 1; b <= maxBatch; b++ {
		ins := randInputs(uint64(100+b), b, model.InDims())
		want := train.Forward(ins)
		wantFlat := make([][]float32, b)
		for i := range want {
			wantFlat[i] = append([]float32(nil), want[i].Data...)
		}
		// Both replicas, concurrently — the -race run checks that shared
		// read-only weights and shared zero-padding tensors are safe.
		var wg sync.WaitGroup
		for rep := 0; rep < model.Replicas(); rep++ {
			wg.Add(1)
			go func(rep int) {
				defer wg.Done()
				got, bucket := model.InferBatch(rep, ins)
				if wantBucket := model.bucketFor(b); bucket != wantBucket {
					t.Errorf("batch %d ran in bucket %d, want %d", b, bucket, wantBucket)
				}
				for i := range got {
					for j := range got[i] {
						if got[i][j] != wantFlat[i][j] {
							t.Errorf("replica %d batch %d image %d logit %d: serve %v != train %v",
								rep, b, i, j, got[i][j], wantFlat[i][j])
							return
						}
					}
				}
			}(rep)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("bit-identity broke at batch size %d", b)
		}
	}
}

// TestPaddingRowsDoNotLeak drives a ragged batch whose padded bucket
// sibling is a FULL batch of the same leading images: if padding leaked
// into real rows, the ragged run would differ from the full run's prefix.
func TestPaddingRowsDoNotLeak(t *testing.T) {
	def, err := netdef.Parse(diffNet)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	model, err := NewModel(def, ModelConfig{
		Buckets: DefaultBuckets(8),
		Planner: pinnedPlanner(st),
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := randInputs(7, 8, model.InDims())
	fullOut, _ := model.InferBatch(0, full)
	for _, ragged := range []int{3, 5, 7} {
		raggedOut, bucket := model.InferBatch(0, full[:ragged])
		if bucket <= ragged {
			t.Fatalf("ragged batch %d did not pad (bucket %d)", ragged, bucket)
		}
		if len(raggedOut) != ragged {
			t.Fatalf("ragged batch %d returned %d outputs", ragged, len(raggedOut))
		}
		for i := 0; i < ragged; i++ {
			for j := range raggedOut[i] {
				if raggedOut[i][j] != fullOut[i][j] {
					t.Fatalf("ragged batch %d image %d logit %d: %v != full-batch %v (padding leaked)",
						ragged, i, j, raggedOut[i][j], fullOut[i][j])
				}
			}
		}
	}
}
