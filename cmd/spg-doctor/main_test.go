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

	"spgcnn"
	"spgcnn/internal/trace"
)

// update regenerates the committed samples and goldens from the in-test
// fixtures: testdata/sample_drift.json and testdata/golden.txt for the
// drift report, testdata/trace/{sample_trace.json,golden.txt,golden.json}
// for the trace capture:
//
//	go test ./cmd/spg-doctor -update
var update = flag.Bool("update", false, "rewrite testdata from the fixture")

// sampleReport is a hand-stamped two-layer report: conv0 agrees well in
// both phases but carried one BP drift event; conv1's FP runs at half the
// modeled rate. Every number is a literal, so the exported JSON and the
// rendering are byte-deterministic.
func sampleReport() spgcnn.DriftReport {
	spec := spgcnn.Square(12, 16, 8, 3, 1)
	return spgcnn.DriftReport{
		Schema:  spgcnn.DriftReportSchemaVersion,
		Host:    "linux/amd64/16cpu/go1.24.0/testbed",
		Workers: 4, Threshold: 1.5, Window: 3, Alpha: 0.25, Warmup: 5,
		Rows: []spgcnn.DriftRow{
			{Layer: "conv0", Phase: "bp", Strategy: "sparse", Spec: spec,
				Region: 5, Band: 3, Sparsity: 0.8,
				Calls: 40, MeasuredSeconds: 0.2, PredictedSeconds: 0.19,
				Agreement: 0.95, EWMA: 1.08, Drifts: 1},
			{Layer: "conv0", Phase: "fp", Strategy: "stencil", Spec: spec,
				Region: 1, Band: 0, Sparsity: 0,
				Calls: 40, MeasuredSeconds: 0.1, PredictedSeconds: 0.098,
				Agreement: 0.98, EWMA: 1.02, Drifts: 0},
			{Layer: "conv1", Phase: "fp", Strategy: "parallel-gemm", Spec: spec,
				Region: 0, Band: 0, Sparsity: 0,
				Calls: 40, MeasuredSeconds: 0.3, PredictedSeconds: 0.15,
				Agreement: 0.5, EWMA: 2.0, Drifts: 0},
		},
		Regions: []spgcnn.DriftRegionRow{
			{Region: 0, Series: 1, Calls: 40, MeasuredSeconds: 0.3, PredictedSeconds: 0.15, Agreement: 0.5},
			{Region: 1, Series: 1, Calls: 40, MeasuredSeconds: 0.1, PredictedSeconds: 0.098, Agreement: 0.98},
			{Region: 5, Series: 1, Calls: 40, MeasuredSeconds: 0.2, PredictedSeconds: 0.19, Agreement: 0.95, Drifts: 1},
		},
		Events: []spgcnn.DriftEvent{
			{Layer: "conv0", Phase: "bp", Strategy: "sparse", Spec: spec,
				Region: 5, Band: 3, Ratio: 1.7, Baseline: 1.05, Observation: 23},
		},
	}
}

func samplePath(t *testing.T) string {
	t.Helper()
	path := filepath.Join("testdata", "sample_drift.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := sampleReport().WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestSampleReportInSync pins testdata/sample_drift.json as the exact
// export of the fixture, so the committed sample can never drift from the
// writer.
func TestSampleReportInSync(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(samplePath(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("testdata/sample_drift.json is stale; regenerate with -update\n--- exported ---\n%s", buf.String())
	}
}

// TestRunGolden pins the rendering byte-for-byte.
func TestRunGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{samplePath(t)}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden.txt"), out.String())
}

// TestRunCheckAndGates covers the CI modes: plain validation, the
// drift-count gate and the agreement floor.
func TestRunCheckAndGates(t *testing.T) {
	path := samplePath(t)
	var out strings.Builder
	if err := run([]string{"-check", path}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "drift report OK: schema 1, 3 series, 1 drift events, agreement 0.730\n"; got != want {
		t.Errorf("-check output = %q, want %q", got, want)
	}
	if err := run([]string{"-check", "-max-drifts", "1", path}, &out); err != nil {
		t.Errorf("-max-drifts 1 should pass with 1 drift: %v", err)
	}
	if err := run([]string{"-check", "-max-drifts", "0", path}, &out); err == nil {
		t.Error("-max-drifts 0 should fail with 1 drift")
	}
	if err := run([]string{"-check", "-min-agreement", "0.5", path}, &out); err != nil {
		t.Errorf("-min-agreement 0.5 should pass at 0.730: %v", err)
	}
	if err := run([]string{"-check", "-min-agreement", "0.9", path}, &out); err == nil {
		t.Error("-min-agreement 0.9 should fail at 0.730")
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
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong-schema report error = %v", err)
	}
}

// TestTraceErrors verifies bad capture inputs surface as errors: malformed
// JSON, and captures the trace decoder refuses.
func TestTraceErrors(t *testing.T) {
	var out strings.Builder
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("expected an error for malformed JSON")
	}
	// A traceEvents member routes the file to the capture decoder, whose
	// errors name the trace package.
	for name, body := range map[string]string{
		"phase": `{"traceEvents": [{"name": "x", "ph": "B", "ts": 0, "pid": 0, "tid": 0}]}`,
		"mode":  `{"traceEvents": [], "otherData": {"mode": "sideways"}}`,
	} {
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{bad}, &out); err == nil || !strings.HasPrefix(err.Error(), "trace:") {
			t.Errorf("bad capture (%s) error = %v, want a trace error", name, err)
		}
	}
}

// TestGateFlagsNameTheirKind: a flag that shapes one kind of file is an
// error, naming the flag, when the file is the other kind.
func TestGateFlagsNameTheirKind(t *testing.T) {
	report, capture := samplePath(t), sampleTracePath
	for _, tc := range []struct {
		flag []string
		path string
	}{
		{[]string{"-top", "3"}, report},
		{[]string{"-json"}, report},
		{[]string{"-max-drifts", "0"}, capture},
		{[]string{"-min-agreement", "0.5"}, capture},
	} {
		var out strings.Builder
		err := run(append(tc.flag, tc.path), &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag[0]) {
			t.Errorf("%v on %s: error = %v, want one naming %s", tc.flag, tc.path, err, tc.flag[0])
		}
	}
}

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

var sampleTracePath = filepath.Join("testdata", "trace", "sample_trace.json")

// checkGolden compares got against the committed golden file, rewriting
// it first under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSampleTraceInSync pins testdata/trace/sample_trace.json as the exact
// deterministic export of the fixture, so the committed sample can never
// drift from the exporter.
func TestSampleTraceInSync(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, sampleCapture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, sampleTracePath, buf.String())
}

// TestTraceGolden pins the capture report byte-for-byte. The sample
// capture is deterministic, so any diff is an intentional format change.
func TestTraceGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-top", "5", sampleTracePath}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "trace", "golden.txt"), out.String())
}

// TestTraceJSONGolden pins the -json capture summary byte-for-byte, and
// re-decodes it to check it is valid JSON with the expected accounting, so
// the golden can't silently pin garbage.
func TestTraceJSONGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-json", "-top", "5", sampleTracePath}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "trace", "golden.json"), out.String())
	var s summary
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

// TestTraceCheck covers the capture's validation-only mode (-check).
func TestTraceCheck(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-check", sampleTracePath}, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "trace OK: 19 events, 2 layers, mode full\n"; got != want {
		t.Errorf("-check output = %q, want %q", got, want)
	}
}
