package dataparallel

import (
	"reflect"
	"testing"

	"spgcnn/internal/netdef"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
)

// replicaNet is conv+fc with no relu, so gradients stay dense and every
// replica's BP request lands in the same sparsity band.
const replicaNet = `
name: "replicas"
input { channels: 2 height: 10 width: 10 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "fc0" type: "fc" outputs: 4 }
`

// TestSharedPlannerAcrossReplicas trains four replicas with SyncEvery > 1
// (local SGD, so replicas run concurrently between syncs) sharing one
// planner. Run under -race this also hammers the planner's single-flight
// path: all four replicas hit the cold conv key at once on the first step.
// Asserts: one measurement pass per (phase, geometry) for the whole
// trainer — not per replica — and bitwise-identical strategy deployments
// on every replica.
func TestSharedPlannerAcrossReplicas(t *testing.T) {
	def, err := netdef.Parse(replicaNet)
	if err != nil {
		t.Fatal(err)
	}
	planner := plan.New(plan.Options{})
	tr, err := NewFromDef(def, netdef.BuildOptions{Workers: 1, Planner: planner, Seed: 3},
		Config{Replicas: 4, GlobalBatch: 8, LR: 0.01, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Planner() != planner {
		t.Fatal("trainer lost the shared planner")
	}

	stats := tr.TrainEpoch(ds{n: 16}, rng.New(1))
	if stats.Images != 16 {
		t.Fatalf("trained %d images, want 16", stats.Images)
	}
	if stats.Syncs != 1 {
		t.Fatalf("SyncEvery=2 over 2 steps should sync once, got %d", stats.Syncs)
	}

	// One conv geometry, two phases: exactly 2 measurement passes for the
	// entire 4-replica trainer.
	pst := planner.Stats()
	if pst.Measurements != 2 {
		t.Errorf("%d measurement passes ran across 4 replicas, want 2 (stats %+v)",
			pst.Measurements, pst)
	}
	if pst.Hits+pst.Misses < 8 {
		t.Errorf("expected every replica to request both phases (>= 8 requests), stats %+v", pst)
	}

	// Every replica deployed the same verdicts.
	deployed := func(i int) (names []string) {
		for _, c := range tr.Replica(i).ConvLayers() {
			if fp, bp, ok := c.Selections(); ok && fp.Chosen != nil && bp.Chosen != nil {
				names = append(names, c.Name(), fp.Chosen.Strategy().Name, bp.Chosen.Strategy().Name)
			}
		}
		return names
	}
	ref := deployed(0)
	if len(ref) == 0 {
		t.Fatal("replica 0 recorded no tuning choices")
	}
	for i := 1; i < 4; i++ {
		if got := deployed(i); !reflect.DeepEqual(got, ref) {
			t.Errorf("replica %d deployed %v, replica 0 deployed %v", i, got, ref)
		}
	}
}

// TestNewFromDefDefaultsPlanner: NewFromDef without an explicit planner
// still shares one across replicas.
func TestNewFromDefDefaultsPlanner(t *testing.T) {
	def, err := netdef.Parse(replicaNet)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewFromDef(def, netdef.BuildOptions{Workers: 1, Seed: 3},
		Config{Replicas: 2, GlobalBatch: 4, LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Planner() == nil {
		t.Fatal("NewFromDef did not install a default shared planner")
	}
	tr.TrainEpoch(ds{n: 8}, rng.New(1))
	p, ok := tr.Planner().(*plan.Planner)
	if !ok {
		t.Fatalf("default planner has type %T, want *plan.Planner", tr.Planner())
	}
	if st := p.Stats(); st.Measurements != 2 {
		t.Errorf("%d measurement passes across 2 replicas, want 2", st.Measurements)
	}
}

// TestNewFromDefBuildError: definition errors surface through NewFromDef
// instead of panicking in a replica builder.
func TestNewFromDefBuildError(t *testing.T) {
	def, err := netdef.Parse(`
name: "broken"
input { channels: 1 height: 4 width: 4 }
layer { name: "conv0" type: "conv" features: 2 kernel: 9 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromDef(def, netdef.BuildOptions{Workers: 1},
		Config{Replicas: 2, GlobalBatch: 4, LR: 0.01}); err == nil {
		t.Fatal("invalid definition built successfully")
	}
}

// TestTrainEpochRunsEpochEnd: the epoch boundary must reach every
// replica's scheduler (the §4.4 BP re-check). With the re-check period
// of 2, two epochs trigger exactly one re-plan per replica — all in-band
// cache hits on the shared planner, zero extra measurement passes.
func TestTrainEpochRunsEpochEnd(t *testing.T) {
	def, err := netdef.Parse(replicaNet)
	if err != nil {
		t.Fatal(err)
	}
	planner := plan.New(plan.Options{})
	tr, err := NewFromDef(def, netdef.BuildOptions{Workers: 1, Planner: planner, Seed: 3},
		Config{Replicas: 2, GlobalBatch: 4, LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainEpoch(ds{n: 8}, rng.New(1))
	afterOne := planner.Stats()
	tr.TrainEpoch(ds{n: 8}, rng.New(2))
	afterTwo := planner.Stats()

	// The epoch-2 re-check re-plans BP for each replica; gradients stayed
	// dense (same band), so these are hits, not re-measurements.
	if afterTwo.Measurements != afterOne.Measurements {
		t.Errorf("in-band epoch re-check re-measured: %d -> %d passes",
			afterOne.Measurements, afterTwo.Measurements)
	}
	if afterTwo.Hits <= afterOne.Hits {
		t.Errorf("epoch re-check did not run (hits %d -> %d); is EpochEnd wired into TrainEpoch?",
			afterOne.Hits, afterTwo.Hits)
	}
}
