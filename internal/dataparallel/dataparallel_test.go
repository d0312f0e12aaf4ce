package dataparallel

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/nn"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// buildNet returns a deterministic conv+relu+fc network on the runtime
// clock; every call with the same seed yields identical weights.
func buildNet(seed uint64) *nn.Network { return buildOn(seed, nil, 0) }

// buildStalledNet is buildNet on a scripted clock that only a stallLayer
// between the relu and the fc advances, by perImage for every image it
// forwards: the same parameters, and a step that lasts exactly perImage
// per image of the replica's shard on the replica's clock.
func buildStalledNet(seed uint64, perImage time.Duration) *nn.Network {
	return buildOn(seed, new(atomic.Int64), perImage)
}

func buildOn(seed uint64, clock *atomic.Int64, perImage time.Duration) *nn.Network {
	r := rng.New(seed)
	s := conv.Square(8, 3, 2, 3, 1)
	st, _ := core.StrategyByName("gemm-in-parallel", 1)
	cv := nn.NewConvCtx("conv0", s, core.FixedPlanner(st, st), exec.New(1), r)
	re := nn.NewReLU("relu0", cv.OutDims(), 1)
	fc := nn.NewFCCtx("fc0", re.OutDims(), 4, exec.New(1), r)
	layers := []nn.Layer{cv, re}
	if clock != nil {
		cv.Ctx().Probe().SetClock(func() time.Duration { return time.Duration(clock.Load()) })
		layers = append(layers, stallLayer{dims: re.OutDims(), perImage: perImage, clock: clock})
	}
	return nn.NewNetwork(cv.Ctx(), append(layers, fc)...)
}

// stallLayer is a parameter-free pass-through that advances its replica's
// scripted clock perImage for every image it forwards: a straggler built
// into one replica's network that leaves the fleet's parameters aligned.
type stallLayer struct {
	dims     []int
	perImage time.Duration
	clock    *atomic.Int64
}

func (stallLayer) Name() string            { return "stall" }
func (l stallLayer) InDims() []int         { return l.dims }
func (l stallLayer) OutDims() []int        { return l.dims }
func (stallLayer) ApplyGrads(float32, int) {}
func (l stallLayer) Forward(outs, ins []*tensor.Tensor) {
	for i := range ins {
		copy(outs[i].Data, ins[i].Data)
	}
	l.clock.Add(int64(l.perImage) * int64(len(ins)))
}
func (stallLayer) Backward(eis, eos, _ []*tensor.Tensor) {
	for i := range eos {
		copy(eis[i].Data, eos[i].Data)
	}
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
		// the ring is the only schedule
		{Replicas: 2, GlobalBatch: 4, AllReduce: "tree"},
	}
	for _, cfg := range cases {
		cfg.LR = 0.01
		if _, err := New(build, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	for _, allreduce := range []string{"", "ring"} {
		if _, err := New(build, Config{Replicas: 2, GlobalBatch: 4, LR: 0.01, AllReduce: allreduce}); err != nil {
			t.Fatalf("valid config (allreduce %q) rejected: %v", allreduce, err)
		}
	}
	_, err := New(build, cases[len(cases)-1])
	if err == nil || !strings.Contains(err.Error(), `"tree"`) {
		t.Fatalf("allreduce tree error = %v, want the value named", err)
	}
}

// TestInjectedStragglerAttribution pins the straggler surface on scripted
// clocks: replica 1 is built to take 2ms per image, 8ms per 4-image shard,
// and the others take no time at all. Every step, each fast replica waits
// exactly 8ms at the barrier and the slow one waits nothing.
func TestInjectedStragglerAttribution(t *testing.T) {
	dp, err := New(func(replica int) *nn.Network {
		if replica == 1 {
			return buildStalledNet(7, 2*time.Millisecond)
		}
		return buildStalledNet(7, 0)
	}, Config{Replicas: 4, GlobalBatch: 16, LR: 0.05, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats := dp.TrainEpoch(ds{n: 64}, rng.New(3))
	for w, r := range stats.Replicas {
		want := 4 * 0.008 // 4 steps of 8ms
		if w == 1 {
			want = 0
		}
		if r.Steps != 4 || math.Abs(r.BarrierWait-want) > 1e-12 {
			t.Fatalf("replica %d: %d steps, barrier wait %vs; want 4 steps, %vs", w, r.Steps, r.BarrierWait, want)
		}
	}
	if slow := stats.Replicas[1]; slow.Min != 0.008 || slow.Max != 0.008 {
		t.Fatalf("slow replica steps took %v-%vs, want 0.008s each", slow.Min, slow.Max)
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
