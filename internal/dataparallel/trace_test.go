package dataparallel

import (
	"bytes"
	"testing"

	"spgcnn/internal/netdef"
	"spgcnn/internal/rng"
	"spgcnn/internal/trace"
)

// tracedNet includes a relu so BP gradients are genuinely sparse and the
// epoch accounting exercises the sparsity/band path.
const tracedNet = `
name: "traced"
input { channels: 2 height: 10 width: 10 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "fc0" type: "fc" outputs: 4 }
`

// TestTrainEpochTraced drives a 2-replica epoch with a recorder bound and
// checks the full observability surface: per-replica stats, the timeline
// events each analyzer consumes, and a Perfetto export that round-trips.
func TestTrainEpochTraced(t *testing.T) {
	def, err := netdef.Parse(tracedNet)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewFromDef(def, netdef.BuildOptions{Workers: 1, Seed: 3},
		Config{Replicas: 2, GlobalBatch: 8, LR: 0.01, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ctxs) != 2 {
		t.Fatalf("contexts = %d, want 2", len(tr.ctxs))
	}
	rec := trace.New(trace.Options{})
	tr.BindTrace(rec)

	stats := tr.TrainEpoch(ds{n: 16}, rng.New(1))

	// Satellite: per-replica step-time stats.
	if len(stats.Replicas) != 2 {
		t.Fatalf("replica stats = %d rows, want 2", len(stats.Replicas))
	}
	for _, r := range stats.Replicas {
		if r.Steps != 2 {
			t.Fatalf("replica %d steps = %d, want 2", r.Replica, r.Steps)
		}
		if r.Min <= 0 || r.Min > r.Mean() || r.Mean() > r.Max {
			t.Fatalf("replica %d min/mean/max out of order: %+v", r.Replica, r)
		}
	}
	if stats.Seconds <= 0 {
		t.Fatalf("epoch seconds = %v", stats.Seconds)
	}
	if _, ok := stats.ConvSparsity["conv0"]; !ok {
		t.Fatal("conv sparsity missing")
	}
	if stats.ConvGFlops <= 0 || stats.ConvGoodputGFlops <= 0 ||
		stats.ConvGoodputGFlops > stats.ConvGFlops {
		t.Fatalf("work rates wrong: dense %v goodput %v", stats.ConvGFlops, stats.ConvGoodputGFlops)
	}

	c := rec.Capture()
	if err := trace.Validate(c); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range c.Events {
		counts[ev.Cat+"/"+ev.Name]++
	}
	if counts["step/step"] != 4 { // 2 replicas × 2 steps
		t.Fatalf("step spans = %d, want 4", counts["step/step"])
	}
	if counts["sync/allreduce"] != 2 {
		t.Fatalf("allreduce spans = %d, want 2", counts["sync/allreduce"])
	}
	if counts["epoch/epoch"] != 1 || counts["sparsity/sparsity/conv0"] != 1 {
		t.Fatalf("epoch accounting events missing: %v", counts)
	}
	// Probe events: layer spans and the planner's cold measurement.
	if counts["layer/layer/conv0/fp/"+fpStrategyOf(c)] == 0 {
		t.Fatalf("conv fp layer spans missing: %v", counts)
	}
	measures := 0
	for key, n := range counts {
		if key == "plan/plan/fp/measure" || key == "plan/plan/bp/measure" {
			measures += n
		}
	}
	if measures == 0 {
		t.Fatalf("planner measurement spans missing: %v", counts)
	}

	// Analyzers consume the live capture directly.
	sr := trace.Stragglers(c)
	if sr.Steps != 2 || len(sr.Rows) != 2 || sr.Syncs != 2 {
		t.Fatalf("straggler report = %+v", sr)
	}
	wr := trace.GoodputWaste(c)
	if wr.Epochs != 1 || len(wr.Rows) != 1 || wr.Rows[0].Layer != "conv0" {
		t.Fatalf("waste report = %+v", wr)
	}
	if wr.Rows[0].DenseFlops <= 0 || wr.Rows[0].UsefulFlops <= 0 {
		t.Fatalf("waste row = %+v", wr.Rows[0])
	}

	// The export round-trips through the Perfetto JSON.
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(c.Events) || len(back.Layers) != 1 {
		t.Fatalf("round trip: %d/%d events, %d layers", len(back.Events), len(c.Events), len(back.Layers))
	}
}

// fpStrategyOf finds the deployed conv0 FP strategy in the capture's layer
// span names.
func fpStrategyOf(c trace.Capture) string {
	for _, ev := range c.Events {
		if ev.Cat == "layer" && len(ev.Name) > len("layer/conv0/fp/") &&
			ev.Name[:len("layer/conv0/fp/")] == "layer/conv0/fp/" {
			return ev.Name[len("layer/conv0/fp/"):]
		}
	}
	return "?"
}

// TestBindTraceNilIsNoop: an unbound trainer must train identically.
func TestBindTraceNilIsNoop(t *testing.T) {
	def, err := netdef.Parse(tracedNet)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewFromDef(def, netdef.BuildOptions{Workers: 1, Seed: 3},
		Config{Replicas: 2, GlobalBatch: 8, LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tr.BindTrace(nil)
	stats := tr.TrainEpoch(ds{n: 16}, rng.New(1))
	if stats.Images != 16 || len(stats.Replicas) != 2 {
		t.Fatalf("untraced epoch stats = %+v", stats)
	}
}
