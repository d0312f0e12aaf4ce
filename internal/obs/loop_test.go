package obs

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
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
