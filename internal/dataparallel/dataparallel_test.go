package dataparallel

import (
	"strings"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// buildNet returns a deterministic conv+relu+fc network; every call with
// the same seed yields identical weights.
func buildNet(seed uint64) *nn.Network {
	r := rng.New(seed)
	s := conv.Square(8, 3, 2, 3, 1)
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	cv := nn.NewConvCtx("conv0", s, core.FixedPlanner(st, st), exec.New(1), r)
	re := nn.NewReLU("relu0", cv.OutDims(), 1)
	fc := nn.NewFC("fc0", re.OutDims(), 4, 1, r)
	return nn.NewNetwork(cv, re, fc)
}

// ds is a deterministic in-package dataset.
type ds struct{ n int }

func (d ds) Len() int        { return d.n }
func (d ds) Classes() int    { return 4 }
func (d ds) Label(i int) int { return i % 4 }
func (d ds) Image(i int, dst *tensor.Tensor) {
	r := rng.New(uint64(i)*0x9e3779b97f4a7c15 + 7)
	dst.FillNormal(r, float32(i%4), 1)
}

func TestConfigValidation(t *testing.T) {
	build := func(int) *nn.Network { return buildNet(1) }
	cases := []Config{
		{Replicas: 0, GlobalBatch: 4},
		{Replicas: 3, GlobalBatch: 4}, // not divisible
		{Replicas: 8, GlobalBatch: 4}, // batch < replicas
		// mitigation re-chunks at the barrier that staleness removes
		{Replicas: 2, GlobalBatch: 4, Staleness: 2, Mitigate: true},
	}
	for _, cfg := range cases {
		cfg.LR = 0.01
		if _, err := New(build, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(build, Config{Replicas: 2, GlobalBatch: 4, LR: 0.01}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	_, err := New(build, cases[len(cases)-1])
	if err == nil || !strings.Contains(err.Error(), "mitigate") || !strings.Contains(err.Error(), "staleness 2") {
		t.Fatalf("mitigate+staleness error = %v, want both settings named", err)
	}
}

func TestRejectsMisalignedReplicas(t *testing.T) {
	i := 0
	build := func(int) *nn.Network {
		i++
		return buildNet(uint64(i)) // different seed per replica: invalid
	}
	if _, err := New(build, Config{Replicas: 2, GlobalBatch: 4, LR: 0.01}); err == nil {
		t.Fatal("differently-initialized replicas accepted")
	}

	// Aligned at New, then a restore that reached one replica only: the
	// first epoch refuses to average the two models.
	dp, err := New(func(int) *nn.Network { return buildNet(1) }, Config{Replicas: 2, GlobalBatch: 4, LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dp.Replica(1).Parameters()[0].Tensor.Data[0]++
	defer func() {
		if recover() == nil {
			t.Fatal("first epoch trained a fleet that diverged before it")
		}
	}()
	dp.TrainEpoch(ds{n: 8}, rng.New(1))
}

// TestSyncEveryOneEqualsSingleWorker is the core equivalence: 2-replica
// fully-synchronous data parallelism must match single-worker global-batch
// SGD step for step (up to float32 reassociation).
func TestSyncEveryOneEqualsSingleWorker(t *testing.T) {
	const globalBatch = 8
	data := ds{n: 32}

	// Single worker.
	single := buildNet(7)
	str := nn.NewTrainer(single, 0.05, globalBatch)
	str.TrainEpoch(data, rng.New(9))

	// Two replicas, sync every step.
	dp, err := New(func(int) *nn.Network { return buildNet(7) },
		Config{Replicas: 2, GlobalBatch: globalBatch, LR: 0.05, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	dp.TrainEpoch(data, rng.New(9))

	sp := single.Parameters()
	rp := dp.Replica(0).Parameters()
	for j := range sp {
		if !tensor.AlmostEqual(sp[j].Tensor, rp[j].Tensor, 1e-4) {
			t.Fatalf("parameter %q diverged: max diff %g",
				sp[j].Name, tensor.MaxAbsDiff(sp[j].Tensor, rp[j].Tensor))
		}
	}
}

func TestReplicasLockstepAfterSync(t *testing.T) {
	dp, err := New(func(int) *nn.Network { return buildNet(3) },
		Config{Replicas: 4, GlobalBatch: 8, LR: 0.05, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	dp.TrainEpoch(ds{n: 32}, rng.New(4))
	ref := dp.Replica(0).Parameters()
	for i := 1; i < 4; i++ {
		ps := dp.Replica(i).Parameters()
		for j := range ps {
			if tensor.MaxAbsDiff(ref[j].Tensor, ps[j].Tensor) != 0 {
				t.Fatalf("replica %d parameter %q out of lockstep", i, ps[j].Name)
			}
		}
	}
}

func TestLocalSGDTrainsAndSyncsLess(t *testing.T) {
	dp, err := New(func(int) *nn.Network { return buildNet(5) },
		Config{Replicas: 2, GlobalBatch: 8, LR: 0.05, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := ds{n: 64}
	r := rng.New(6)
	first := dp.TrainEpoch(data, r)
	var last Stats
	for e := 0; e < 5; e++ {
		last = dp.TrainEpoch(data, r)
	}
	if !(last.Loss < first.Loss) {
		t.Fatalf("local SGD did not learn: %v -> %v", first.Loss, last.Loss)
	}
	// 64/8 = 8 steps per epoch, sync every 4 -> 2 syncs per epoch: both
	// count the epoch, not the trainer's lifetime.
	for _, st := range []Stats{first, last} {
		if st.Steps != 8 || st.Syncs != 2 {
			t.Fatalf("epoch %d: %d steps / %d syncs, want 8 / 2", st.Epoch, st.Steps, st.Syncs)
		}
	}
	if last.Epoch != 6 {
		t.Fatalf("epoch counter = %d, want 6", last.Epoch)
	}
	if last.Images != 64 || last.ImagesPerSec <= 0 {
		t.Fatalf("accounting wrong: %+v", last)
	}
}

// TestSingleReplicaDegeneratesToSGD: one replica is nn.Trainer.TrainEpoch
// on replica 0 — the same weights bit for bit, the tail batch trained, no
// sync and no skipped image — and OnStep fires before each of its steps.
func TestSingleReplicaDegeneratesToSGD(t *testing.T) {
	dp, err := New(func(int) *nn.Network { return buildNet(8) },
		Config{Replicas: 1, GlobalBatch: 4, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var steps []int64
	dp.OnStep = func(step int64) { steps = append(steps, step) }
	single := buildNet(8)
	str := nn.NewTrainer(single, 0.05, 4)
	data := ds{n: 18} // 4 full batches and a tail of 2
	got := dp.TrainEpoch(data, rng.New(2))
	want := str.TrainEpoch(data, rng.New(2))
	sp := single.Parameters()
	rp := dp.Replica(0).Parameters()
	for j := range sp {
		if d := tensor.MaxAbsDiff(sp[j].Tensor, rp[j].Tensor); d != 0 {
			t.Fatalf("single-replica run differs from plain SGD at %q by %g", sp[j].Name, d)
		}
	}
	if got.Loss != want.Loss || got.Images != 18 || got.SkippedImages != 0 ||
		got.Steps != 5 || got.Syncs != 0 || len(got.Replicas) != 1 {
		t.Fatalf("single-replica stats = %+v, plain SGD = %+v", got, want)
	}
	if len(steps) != 5 || steps[0] != 1 || steps[4] != 5 {
		t.Fatalf("OnStep saw steps %v, want 1..5", steps)
	}
}
