package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// update regenerates the goldens after an intentional change:
//
//	go test ./cmd/spg-plan -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata goldens")

// checkGolden runs the command and compares its output byte-for-byte
// against testdata/<name>.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("output diverged from %s (regenerate with -update after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
			path, out.String(), want)
	}
}

// TestRunGolden pins the deterministic (non -tune) output: the §3
// characterization, the stencil plan, the paper-machine numbers and the
// planner's model ranking are all pure functions of the flags.
func TestRunGolden(t *testing.T) {
	checkGolden(t, "golden.txt", "-n", "36", "-nf", "64", "-nc", "3", "-f", "5", "-s", "1",
		"-sparsity", "0.85", "-workers", "4")
}

// TestRunExploreGolden pins the -explore design-space report over the
// workload zoo: every line is a pure function of the netdefs and the
// paper machine model.
func TestRunExploreGolden(t *testing.T) {
	checkGolden(t, "explore_golden.txt", "-explore", "all", "-workers", "16")
}

// TestRunExploreBuiltinsAndErrors covers name resolution: every built-in
// resolves, a bogus name surfaces as an error, and the single-net path
// renders that net alone.
func TestRunExploreBuiltinsAndErrors(t *testing.T) {
	for _, name := range []string{"mnist", "cifar10", "imagenet100",
		"zoo-depthwise", "zoo-dilated", "zoo-bottleneck", "zoo-residual"} {
		var out strings.Builder
		if err := run([]string{"-explore", name}, &out); err != nil {
			t.Errorf("explore %q: %v", name, err)
		} else if !strings.Contains(out.String(), "net "+name) {
			t.Errorf("explore %q output missing its net header:\n%s", name, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-explore", "no-such-net"}, &out); err == nil {
		t.Error("explore accepted a bogus net name")
	}
}

// TestRunWorkersZeroUsesGOMAXPROCS covers the -workers 0 default: the
// model ranking must run at GOMAXPROCS, not clamp to one core.
func TestRunWorkersZeroUsesGOMAXPROCS(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "36", "-nf", "64", "-nc", "3", "-f", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("planner model ranking (dense-equivalent GFlops/core at p=%d):",
		runtime.GOMAXPROCS(0))
	if !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q (the -workers 0 GOMAXPROCS default):\n%s", want, out.String())
	}
}

// TestRunBadSpec verifies flag validation surfaces as an error, not a
// panic or os.Exit.
func TestRunBadSpec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "2", "-f", "5"}, &out); err == nil {
		t.Fatal("expected an error for a kernel larger than its input")
	}
}

// TestRunTunePlanCacheRoundTrip runs the full measured path twice against
// one cache file: the first run must measure, the second must deploy every
// verdict from the cache with zero measurement passes.
func TestRunTunePlanCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement passes in -short mode")
	}
	cache := filepath.Join(t.TempDir(), "plans.json")
	args := []string{"-n", "12", "-nf", "8", "-nc", "3", "-f", "3",
		"-workers", "2", "-tune", "-reps", "1", "-plan-cache", cache}

	var cold strings.Builder
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "planner: 0 hits, 2 misses, 2 measurement passes") {
		t.Errorf("cold run should measure FP and BP once each:\n%s", cold.String())
	}

	var warm strings.Builder
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "planner: 2 hits, 0 misses, 0 measurement passes") {
		t.Errorf("warm run should deploy both verdicts from the cache:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "deployed from plan cache, no measurement") {
		t.Errorf("warm run should report cache provenance:\n%s", warm.String())
	}
}
