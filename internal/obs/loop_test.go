package obs

import (
	"testing"

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

// TestDriftRetuneLoop is the end-to-end acceptance test for the re-tune
// loop: a real planned layer trains under the observatory; a fake 2x
// slowdown injected into its spans must fire a drift event within the
// detector's window, invalidate the affected plan.Key, and cause a fresh
// measurement pass on the next batch. The control phase (no injection)
// must see zero events and zero extra measurement passes.
func TestDriftRetuneLoop(t *testing.T) {
	s := conv.Spec{Nx: 24, Ny: 24, Nc: 16, Nf: 32, Fx: 3, Fy: 3, Sx: 1, Sy: 1}
	const workers, batch = 2, 4
	ctx := exec.New(workers)
	pl := plan.New(plan.Options{Tune: core.TuneOptions{Reps: 1}})
	r := rng.New(7)
	layer := nn.NewConvCtx("c1", s, pl, ctx, r)

	cp := NewCoupler(pl)
	cp.Register(layer)
	o := New(Options{
		Workers: workers, Warmup: 5, Window: 3, Threshold: 1.6,
		OnDrift: cp.OnDrift,
	})
	o.RegisterLayer("c1", s)
	o.SetBatch(batch)
	ctx.Probe().AddSink(o)

	ins := make([]*tensor.Tensor, batch)
	outs := make([]*tensor.Tensor, batch)
	eos := make([]*tensor.Tensor, batch)
	eis := make([]*tensor.Tensor, batch)
	for i := 0; i < batch; i++ {
		ins[i] = tensor.New(s.Nc, s.Ny, s.Nx)
		ins[i].FillNormal(r, 0, 1)
		outs[i] = tensor.New(s.Nf, s.OutY(), s.OutX())
		eos[i] = tensor.New(s.Nf, s.OutY(), s.OutX())
		eos[i].FillNormal(r, 0, 1)
		eis[i] = tensor.New(s.Nc, s.Ny, s.Nx)
	}
	step := func() {
		layer.Forward(outs, ins)
		layer.Backward(eis, eos, ins)
		cp.Apply()
	}

	// Warm phase: deploy + settle the baselines.
	for i := 0; i < 10; i++ {
		step()
	}
	st0 := pl.Stats()
	if st0.Measurements == 0 {
		t.Fatal("no measurement passes during deployment")
	}

	// Control epoch: steady state, no injection. Zero drift events, zero
	// extra measurement passes — the epoch-end BP re-check must stay a
	// free in-band cache hit.
	for i := 0; i < 10; i++ {
		step()
	}
	layer.EpochEnd()
	layer.EpochEnd() // second epoch crosses the BP re-check period
	step()
	st1 := pl.Stats()
	if n := len(o.Events()); n != 0 {
		t.Fatalf("control phase fired %d drift events: %v", n, o.Events())
	}
	if st1.Measurements != st0.Measurements {
		t.Fatalf("control phase re-measured: %d -> %d passes", st0.Measurements, st1.Measurements)
	}
	if st1.Invalidations != 0 {
		t.Fatalf("control phase invalidated %d entries", st1.Invalidations)
	}

	// Fault injection: a fake 2x host slowdown on every observed span.
	o.SetSlowdown(2)
	fired := -1
	for i := 0; i < 15; i++ {
		layer.Forward(outs, ins)
		layer.Backward(eis, eos, ins)
		if len(o.Events()) > 0 {
			fired = i + 1
			break
		}
	}
	if fired < 0 {
		t.Fatal("2x slowdown fired no drift event in 15 batches")
	}
	t.Logf("drift fired after %d slowed batches: %v", fired, o.Events()[0])

	// The trigger invalidated the drifting (spec, phase) keys...
	ev := o.Events()[0]
	st2 := pl.Stats()
	if st2.Invalidations == 0 {
		t.Fatal("drift event did not invalidate any plan entries")
	}
	key := plan.Key{Host: pl.Host(), Spec: s.Canon(), Workers: workers, Phase: ev.Phase, Band: 0}
	if _, ok := pl.Lookup(key); ok {
		t.Fatalf("drifting key %v still cached after the drift event", key)
	}

	// ...and the coupler's re-tune makes the next batch a fresh
	// measurement pass, not a free hit.
	cp.Apply()
	step()
	st3 := pl.Stats()
	if st3.Measurements <= st2.Measurements {
		t.Fatalf("no new measurement pass after re-tune: %d -> %d", st2.Measurements, st3.Measurements)
	}
	if _, ok := pl.Lookup(key); !ok {
		t.Fatalf("re-measured verdict for %v not re-cached", key)
	}
}

// TestRetuneLandsOnTheNextBatch pins where a queued re-tune is applied: on
// the trainer's OnStep, so a drift raised during one step re-plans the very
// next one — at one replica and across a fleet alike, not at the epoch
// boundary. Scripted: the drift event is handed to the coupler from OnStep
// itself, so no span timing is involved.
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
		cp := NewCoupler(pl)
		for i := 0; i < replicas; i++ {
			cp.Register(dp.Replica(i).ConvLayers()[0])
		}
		conv := dp.Replica(0).ConvLayers()[0]
		var appliedAt []int64
		var passes []uint64 // measurement passes seen at each step's start
		dp.OnStep = func(step int64) {
			if cp.Apply() > 0 {
				appliedAt = append(appliedAt, step)
			}
			passes = append(passes, pl.Stats().Measurements)
			if step == 2 {
				cp.OnDrift(DriftEvent{Layer: conv.Name(), Phase: "bp", Spec: conv.Spec()})
			}
		}
		dp.TrainEpoch(stepDS{n: 16}, rng.New(1))

		if len(appliedAt) != 1 || appliedAt[0] != 3 || cp.Applied() != replicas {
			t.Fatalf("%d replicas: re-tune applied at steps %v to %d layers, want step 3 and every replica",
				replicas, appliedAt, cp.Applied())
		}
		// Steps 1 and 3 measure (first deployment: FP and BP; the re-tune:
		// BP again, once for the whole fleet), steps 2 and 4 do not.
		if len(passes) != 4 || passes[1] != 2 || passes[2] != 2 || passes[3] != 3 {
			t.Fatalf("%d replicas: measurement passes at step starts = %v, want [0 2 2 3]", replicas, passes)
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
