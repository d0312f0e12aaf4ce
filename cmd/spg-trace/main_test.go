package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spgcnn/internal/trace"
)

// update regenerates testdata/sample_trace.json and testdata/golden.txt
// from the in-test fixture:
//
//	go test ./cmd/spg-trace -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata from the fixture")

// sampleCapture is a hand-stamped two-replica three-step capture: replica 1
// is the straggler twice (steps 1 and 3), conv0 runs a dense BP strategy
// (its Eq. 9 waste burns), conv1 runs the sparse kernel (waste recovered).
// Timestamps are literals, so the exported JSON is byte-deterministic.
func sampleCapture() trace.Capture {
	ms := int64(time.Millisecond)
	evs := []trace.Event{
		{Name: "step", Cat: "step", Phase: 'X', Ts: 0, Dur: 2 * ms, Replica: 0, Step: 1},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 0, Dur: 5 * ms, Replica: 1, Step: 1},
		{Name: "allreduce", Cat: "sync", Phase: 'X', Ts: 5 * ms, Dur: ms, Replica: -1, Step: 1},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 6 * ms, Dur: 6 * ms, Replica: 0, Step: 2},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 6 * ms, Dur: 3 * ms, Replica: 1, Step: 2},
		{Name: "allreduce", Cat: "sync", Phase: 'X', Ts: 12 * ms, Dur: ms, Replica: -1, Step: 2},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 13 * ms, Dur: 2 * ms, Replica: 0, Step: 3},
		{Name: "step", Cat: "step", Phase: 'X', Ts: 13 * ms, Dur: 4 * ms, Replica: 1, Step: 3},
		{Name: "allreduce", Cat: "sync", Phase: 'X', Ts: 17 * ms, Dur: ms, Replica: -1, Step: 3},
		{Name: "layer/conv0/fp/stencil", Cat: "layer", Phase: 'X', Ts: ms, Dur: ms, Replica: 0, Step: 1},
		{Name: "layer/conv0/bp/parallel-gemm", Cat: "layer", Phase: 'X', Ts: 2 * ms, Dur: 2 * ms, Replica: 0, Step: 1},
		{Name: "layer/conv1/fp/stencil", Cat: "layer", Phase: 'X', Ts: 3 * ms, Dur: ms, Replica: 0, Step: 1},
		{Name: "layer/conv1/bp/sparse", Cat: "layer", Phase: 'X', Ts: 4 * ms, Dur: ms, Replica: 0, Step: 1},
		{Name: "plan/bp/measure", Cat: "plan", Phase: 'X', Ts: 0, Dur: 3 * ms, Replica: -1, Step: 1,
			Detail: "sparse", Value: 0.001},
		{Name: "plan/bp/hit", Cat: "plan", Phase: 'i', Ts: 6 * ms, Replica: -1, Step: 2, Detail: "sparse"},
		{Name: "grow", Cat: "arena", Phase: 'i', Ts: ms, Replica: 0, Step: 1, Value: 4096},
		{Name: "epoch", Cat: "epoch", Phase: 'i', Ts: 18 * ms, Replica: -1, Step: 3, Value: 8},
		{Name: "sparsity/conv0", Cat: "sparsity", Phase: 'i', Ts: 18 * ms, Replica: -1, Step: 3,
			Detail: "conv0", Value: 0.5},
		{Name: "sparsity/conv1", Cat: "sparsity", Phase: 'i', Ts: 18 * ms, Replica: -1, Step: 3,
			Detail: "conv1", Value: 0.75},
	}
	return trace.Capture{
		Events: evs,
		Layers: []trace.LayerMeta{
			{Name: "conv0", FPFlops: 1000, BPFlops: 2000},
			{Name: "conv1", FPFlops: 500, BPFlops: 1000},
		},
		Mode:  "full",
		Stats: trace.Stats{Emitted: uint64(len(evs))},
	}
}

// TestSampleTraceInSync pins testdata/sample_trace.json as the exact
// deterministic export of the fixture, so the committed sample can never
// drift from the exporter.
func TestSampleTraceInSync(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, sampleCapture()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sample_trace.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("testdata/sample_trace.json is stale; regenerate with -update\n--- exported ---\n%s", buf.String())
	}
}

// TestRunGolden pins the full report rendering byte-for-byte. The sample
// capture is deterministic, so any diff is an intentional format change:
// regenerate both files with
//
//	go test ./cmd/spg-trace -run Golden -update
func TestRunGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "golden.txt")
	var out strings.Builder
	if err := run([]string{"-top", "5", filepath.Join("testdata", "sample_trace.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output diverged from testdata/golden.txt\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
}

// TestRunJSONGolden pins the -json machine-readable summary byte-for-byte
// against testdata/golden.json; regenerate with -update as for the text
// golden. It also re-decodes the output to check it is valid JSON with the
// expected top-level accounting, so the golden can't silently pin garbage.
func TestRunJSONGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "golden.json")
	var out strings.Builder
	if err := run([]string{"-json", "-top", "5", filepath.Join("testdata", "sample_trace.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("-json output diverged from testdata/golden.json\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), want)
	}
	var s jsonSummary
	if err := json.Unmarshal([]byte(out.String()), &s); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if s.Schema != 1 || s.Events != 19 || s.Layers != 2 || s.Replicas != 2 {
		t.Errorf("summary header = %+v", s)
	}
	if len(s.TopSpans) != 5 {
		t.Errorf("top spans = %d, want 5", len(s.TopSpans))
	}
	if s.Stragglers == nil || len(s.Stragglers.Rows) != 2 || s.Stragglers.SlowestReplica != 1 {
		t.Errorf("stragglers = %+v", s.Stragglers)
	}
	if s.Waste == nil || len(s.Waste.Rows) != 2 {
		t.Fatalf("waste = %+v", s.Waste)
	}
	// conv0 runs a dense BP strategy: its Eq. 9 waste is burned. conv1's
	// sparse kernel recovers the gap.
	if r := s.Waste.Rows[0]; r.Layer != "conv0" || r.BurnedFlops != r.WastedFlops || r.WastedFlops == 0 {
		t.Errorf("conv0 waste row = %+v", r)
	}
	if r := s.Waste.Rows[1]; r.Layer != "conv1" || r.BurnedFlops != 0 || r.WastedFlops == 0 {
		t.Errorf("conv1 waste row = %+v", r)
	}
}

// TestRunCheck covers the validation-only mode (-check).
func TestRunCheck(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-check", filepath.Join("testdata", "sample_trace.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "trace OK: 19 events, 2 layers, mode full\n"; got != want {
		t.Errorf("-check output = %q, want %q", got, want)
	}
}

// TestRunErrors verifies bad inputs surface as errors, not panics.
func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Error("expected a usage error with no arguments")
	}
	if err := run([]string{filepath.Join("testdata", "nope.json")}, &out); err == nil {
		t.Error("expected an error for a missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("expected an error for malformed JSON")
	}
}
