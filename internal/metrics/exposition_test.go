package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"spgcnn/internal/exec"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// scripted is the registry input TestExpositionGolden pins: 4-part conv and
// FC layer spans, 3-part glue spans, core, tune and pack spans, and one
// choice per phase.
var scripted = []struct {
	cat, name, phase, strategy string
	seconds                    float64
}{
	{"layer", "layer/conv0/fp/stencil", "", "", 0.0012},
	{"layer", "layer/conv0/fp/stencil", "", "", 0.0009},
	{"layer", "layer/conv0/bp/sparse", "", "", 0.0031},
	{"layer", "layer/relu0/fp", "", "", 0.00004},
	{"layer", "layer/relu0/bp", "", "", 0.00006},
	{"layer", "layer/pool0/fp", "", "", 0.0002},
	{"layer", "layer/fc0/fp/gemm-in-parallel", "", "", 0.00011},
	{"layer", "layer/fc0/bp/gemm-in-parallel", "", "", 0.00023},
	{"core", "core/fp/stencil", "", "", 0.0011},
	{"core", "core/bp/sparse", "", "", 0.0029},
	{"tune", "tune/fp/stencil", "", "", 0.0013},
	{"tune", "tune/fp/parallel-gemm", "", "", 0.0042},
	{"tune", "tune/bp/sparse", "", "", 0.003},
	{"pack", "pack/32,64,3,5,1/miss", "", "", 0.0005},
	{"pack", "pack/32,64,3,5,1/hit", "", "", 0},
	{"pack", "pack/32,64,3,5,1/hit", "", "", 0},
	{"choice", "choice/fp", "fp", "stencil", 0.0013},
	{"choice", "choice/bp", "bp", "sparse", 0.003},
	{"choice", "choice/bp-flip", "bp-flip", "gemm-in-parallel", 0.0035},
	{"choice", "choice/bp", "bp", "sparse", 0.0028},
}

// TestExpositionGolden pins the scrape byte for byte: the registry fed a
// scripted event sequence renders exactly testdata/exposition.golden, which
// was generated before the probe recorded typed events and is not
// regenerated unless the exposition is meant to change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	for _, s := range scripted {
		r.Record(exec.Event{Cat: s.cat, Name: s.name, Phase: s.phase, Strategy: s.strategy, Seconds: s.seconds})
	}
	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\n%s", path, got.String())
	}
}
