package obs

import (
	"sync/atomic"
	"testing"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/dataparallel"
	"spgcnn/internal/exec"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// tickClock is a scripted probe clock: every reading advances it by one
// tick. A span therefore lasts as many ticks as the clock readings inside
// it, the same count on every steady-state call of a layer, and raising the
// tick stretches every span alike, the way a co-tenant taking the machine
// would.
type tickClock struct{ ns, tick atomic.Int64 }

func newTickClock(tick time.Duration) *tickClock {
	c := &tickClock{}
	c.tick.Store(int64(tick))
	return c
}

func (c *tickClock) now() time.Duration { return time.Duration(c.ns.Add(c.tick.Load())) }

// TestDriftRetuneLoop is the end-to-end acceptance test for the re-tune
// loop: a real planned layer trains under the observatory on a scripted
// clock; doubling the clock's tick must fire a drift event on the 5th
// slowed batch, invalidate the affected plan.Key, and cause a fresh
// measurement pass on the next batch. The control phase (the same tick)
// must see zero events, zero invalidations and zero extra measurement
// passes.
func TestDriftRetuneLoop(t *testing.T) {
	s := conv.Spec{Nx: 24, Ny: 24, Nc: 16, Nf: 32, Fx: 3, Fy: 3, Sx: 1, Sy: 1}
	const workers, batch = 2, 4
	ctx := exec.New(workers)
	clock := newTickClock(time.Microsecond)
	ctx.Probe().SetClock(clock.now)
	pl := plan.New(plan.Options{Tune: core.TuneOptions{Reps: 1}})
	r := rng.New(7)
	// The network's clock emits c1's layer events; a ReLU in front keeps c1
	// from being the first layer, so its BP verdict computes the input
	// gradient and is keyed as the lookups below expect.
	layer := nn.NewConvCtx("c1", s, pl, ctx, r)
	net := nn.NewNetwork(ctx, nn.NewReLU("relu", layer.InDims(), workers), layer)

	o := New(Options{
		Workers: workers,
		OnDrift: func(ev DriftEvent) { pl.InvalidateSpec(ev.Spec, ev.Phase) },
	})
	o.RegisterLayer("c1", s)
	o.SetBatch(batch)
	ctx.Probe().AddSink(o)

	ins := make([]*tensor.Tensor, batch)
	eos := make([]*tensor.Tensor, batch)
	for i := 0; i < batch; i++ {
		ins[i] = tensor.New(s.Nc, s.Ny, s.Nx)
		ins[i].FillNormal(r, 0, 1)
		eos[i] = tensor.New(s.Nf, s.OutY(), s.OutX())
		eos[i].FillNormal(r, 0, 1)
	}
	step := func() {
		net.Forward(ins)
		net.Backward(eos, ins)
	}

	// Warm phase: deploy + settle the baselines.
	for i := 0; i < 10; i++ {
		step()
	}
	st0 := pl.Stats()
	if st0.Measurements == 0 {
		t.Fatal("no measurement passes during deployment")
	}

	// Control phase: steady state, no injection. Nothing invalidates the
	// deployed verdicts and the gradients stay in band, so no batch
	// re-plans.
	for i := 0; i < 10; i++ {
		step()
	}
	st1 := pl.Stats()
	if n := len(o.Events()); n != 0 {
		t.Fatalf("control phase fired %d drift events: %v", n, o.Events())
	}
	if st1.Invalidations != 0 {
		t.Fatalf("control phase invalidated %d entries", st1.Invalidations)
	}
	if st1.Measurements != st0.Measurements || st1.Hits != st0.Hits || st1.Misses != st0.Misses {
		t.Fatalf("control phase re-planned: %+v -> %+v", st0, st1)
	}

	// Fault injection: every span from here on takes twice as long. The
	// stream's first call planned, so the 5th slowed batch is its 24th
	// observation.
	clock.tick.Store(int64(2 * time.Microsecond))
	fired := -1
	for i := 0; i < 15; i++ {
		step()
		if len(o.Events()) > 0 {
			fired = i + 1
			break
		}
	}
	if fired != 5 {
		t.Fatalf("2x slowdown fired its first drift event after %d batches, want 5: %v", fired, o.Events())
	}

	// The trigger invalidated the drifting (spec, phase) keys...
	ev := o.Events()[0]
	if ev.Observation != 24 {
		t.Fatalf("drift fired at observation %d, want 24: %v", ev.Observation, ev)
	}
	st2 := pl.Stats()
	if st2.Invalidations == 0 {
		t.Fatal("drift event did not invalidate any plan entries")
	}
	key := plan.Key{Host: pl.Host(), Spec: s.Canon(), Workers: workers, Phase: ev.Phase, Band: 0}
	if _, ok := pl.Lookup(key); ok {
		t.Fatalf("drifting key %v still cached after the drift event", key)
	}

	// ...and the layer's next batch is a fresh measurement pass, not a
	// free hit.
	step()
	st3 := pl.Stats()
	if st3.Measurements <= st2.Measurements {
		t.Fatalf("no new measurement pass after the invalidation: %d -> %d", st2.Measurements, st3.Measurements)
	}
	if _, ok := pl.Lookup(key); !ok {
		t.Fatalf("re-measured verdict for %v not re-cached", key)
	}
}

// TestRetuneLandsOnTheNextBatch pins where a drift's re-plan lands: inside
// the very next step's layer calls, at one replica and across a fleet
// alike, not at the epoch boundary. Scripted: the drift event is handed to
// the observatory's invalidation callback from OnStep, so no span timing
// is involved.
func TestRetuneLandsOnTheNextBatch(t *testing.T) {
	def, err := netdef.Parse(`
name: "tiny"
input { channels: 1 height: 12 width: 12 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "fc0" type: "fc" outputs: 4 }
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 2} {
		pl := plan.New(plan.Options{Tune: core.TuneOptions{Reps: 1}})
		dp, err := dataparallel.NewFromDef(def, netdef.BuildOptions{Workers: 1, Seed: 3, Planner: pl},
			dataparallel.Config{Replicas: replicas, GlobalBatch: 4, LR: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		onDrift := func(ev DriftEvent) { pl.InvalidateSpec(ev.Spec, ev.Phase) }
		conv := dp.Replica(0).ConvLayers()[0]
		deployed := func() (ex []*core.Exec) {
			for i := 0; i < replicas; i++ {
				_, bp, _ := dp.Replica(i).ConvLayers()[0].Selections()
				ex = append(ex, bp.Chosen)
			}
			return ex
		}
		var passes []uint64 // measurement passes seen at each step's start
		var held [][]*core.Exec
		dp.OnStep = func(step int64) {
			passes = append(passes, pl.Stats().Measurements)
			held = append(held, deployed())
			if step == 2 {
				onDrift(DriftEvent{Layer: conv.Name(), Phase: "bp", Spec: conv.Spec()})
			}
		}
		dp.TrainEpoch(stepDS{n: 16}, rng.New(1))

		// Steps 1 and 2 measure (first deployment: FP and BP; the re-plan:
		// BP again, once for the whole fleet), steps 3 and 4 do not.
		if len(passes) != 4 || passes[1] != 2 || passes[2] != 3 || passes[3] != 3 {
			t.Fatalf("%d replicas: measurement passes at step starts = %v, want [0 2 3 3]", replicas, passes)
		}
		for i := 0; i < replicas; i++ {
			if held[2][i] == held[1][i] || held[3][i] != held[2][i] {
				t.Fatalf("%d replicas: replica %d did not redeploy exactly on step 2", replicas, i)
			}
		}
	}
}

// stepDS is a deterministic dataset for the trainer-level loop test.
type stepDS struct{ n int }

func (d stepDS) Len() int        { return d.n }
func (d stepDS) Classes() int    { return 4 }
func (d stepDS) Label(i int) int { return i % 4 }
func (d stepDS) Image(i int, dst *tensor.Tensor) {
	dst.FillNormal(rng.New(uint64(i)+11), float32(i%4), 1)
}
