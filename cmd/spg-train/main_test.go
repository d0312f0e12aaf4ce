package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spgcnn"
	"spgcnn/internal/trace"
)

// scrape fetches one URL off the live metrics endpoint.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scraping %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scraping %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

func TestMetricsEndpointDuringTraining(t *testing.T) {
	var addr string
	var midTraining, final, health string
	metricsUpHook = func(a string) { addr = a }
	epochHook = func(epoch int) {
		if addr == "" {
			t.Fatal("epoch ran before the metrics endpoint came up")
		}
		switch epoch {
		case 0:
			midTraining = scrape(t, "http://"+addr+"/metrics")
			health = scrape(t, "http://"+addr+"/healthz")
		case 1:
			final = scrape(t, "http://"+addr+"/metrics")
		}
	}
	defer func() { metricsUpHook, epochHook = nil, nil }()

	var out bytes.Buffer
	err := run([]string{
		"-net", "mnist", "-epochs", "2", "-examples", "32", "-batch", "8",
		"-workers", "2", "-strategy", "gemm-in-parallel",
		"-metrics-addr", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// Mid-training scrape: per-layer fp and bp spans with nonzero counts.
	var sawFP, sawBP bool
	for _, line := range strings.Split(midTraining, "\n") {
		if !strings.HasPrefix(line, "spg_span_seconds_count{") {
			continue
		}
		var n float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &n); err != nil || n <= 0 {
			continue
		}
		if strings.Contains(line, `span="layer/`) && strings.Contains(line, "/fp/") {
			sawFP = true
		}
		if strings.Contains(line, `span="layer/`) && strings.Contains(line, "/bp/") {
			sawBP = true
		}
	}
	if !sawFP || !sawBP {
		t.Fatalf("mid-training scrape missing per-layer spans (fp=%v bp=%v):\n%s",
			sawFP, sawBP, midTraining)
	}

	// The goodput series is recorded before the epoch hook fires.
	for _, want := range []string{
		`spg_conv_goodput_gflops_series{epoch="1"}`,
		"spg_images_per_sec",
		"spg_workers 2",
	} {
		if !strings.Contains(midTraining, want) {
			t.Errorf("mid-training scrape missing %q", want)
		}
	}
	if !strings.Contains(final, `spg_conv_goodput_gflops_series{epoch="2"}`) {
		t.Error("final scrape missing the epoch-2 goodput series")
	}

	if !strings.Contains(health, "ok") {
		t.Errorf("healthz = %q", health)
	}
	if !strings.Contains(out.String(), "metrics endpoint http://") {
		t.Errorf("run output does not announce the metrics endpoint:\n%s", out.String())
	}
}

func TestBuiltinNetworks(t *testing.T) {
	for _, name := range []string{"mnist", "cifar", "imagenet100"} {
		src, ds := builtin(name)
		if src == "" || ds != name {
			t.Fatalf("builtin(%q) = %q dataset, want matching dataset", name, ds)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	for _, name := range []string{"mnist", "cifar", "imagenet100"} {
		if datasetByName(name, 10) == nil {
			t.Fatalf("datasetByName(%q) = nil", name)
		}
	}
	if datasetByName("imagenet22k", 10) != nil {
		t.Fatal("unknown dataset resolved")
	}
}

func TestFindStrategy(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range strategyNames() {
		if seen[name] {
			t.Fatalf("strategyNames() lists %q twice", name)
		}
		seen[name] = true
		st, ok := spgcnn.StrategyByName(name, 2)
		if !ok || st.Name != name {
			t.Fatalf("StrategyByName(%q) failed", name)
		}
	}
	if !seen["stencil"] || !seen["sparse"] {
		t.Fatalf("strategyNames() = %v, want both candidate sets", strategyNames())
	}
	if _, ok := spgcnn.StrategyByName("auto", 2); ok {
		t.Fatal("'auto' is not a strategy name and must not resolve")
	}
	// Worker floor.
	if st, ok := spgcnn.StrategyByName("parallel-gemm", 0); !ok || st.Name != "parallel-gemm" {
		t.Fatal("workers=0 not floored")
	}
	// An unknown name is rejected with the accepted names listed.
	err := run([]string{"-strategy", "warp-drive", "-epochs", "0"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "sparse-weight") {
		t.Fatalf("unknown strategy error = %v, want the accepted names", err)
	}
}

// tinyNetFile writes the conv+fc network the command-level tests train:
// no relu/pool, so the conv layer's gradients stay dense (sparsity band 0)
// and plan-cache keys are deterministic run to run.
func tinyNetFile(t *testing.T) string {
	t.Helper()
	const src = `
name: "tiny"
input { channels: 1 height: 28 width: 28 }
layer { name: "conv0" type: "conv" features: 4 kernel: 5 stride: 2 }
layer { name: "fc0" type: "fc" outputs: 10 }
`
	path := filepath.Join(t.TempDir(), "net.prototxt")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPlanCacheWarmStart trains the same tiny network twice against one
// plan cache file. The cold run must measure once per (geometry, phase);
// the warm run must deploy every verdict from the cache with zero
// measurement passes and land on identical strategies.
func TestPlanCacheWarmStart(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "plans.json")
	args := []string{"-file", tinyNetFile(t), "-dataset", "mnist",
		"-epochs", "1", "-examples", "16", "-batch", "8", "-workers", "2",
		"-plan-cache", cache}

	var cold bytes.Buffer
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "plan cache: 0 hits, 2 misses, 2 measurement passes") {
		t.Errorf("cold run should measure FP and BP once:\n%s", cold.String())
	}
	if !strings.Contains(cold.String(), "plan cache: saved 2 entries") {
		t.Errorf("cold run should persist both verdicts:\n%s", cold.String())
	}

	var warm bytes.Buffer
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "plan cache: loaded 2 entries") {
		t.Errorf("warm run should load the persisted cache:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "plan cache: 2 hits, 0 misses, 0 measurement passes") {
		t.Errorf("warm run must not re-measure:\n%s", warm.String())
	}

	// Same deployments either way: the warm path redeploys the cold path's
	// verdicts verbatim.
	coldDep := deploymentsLine(cold.String())
	warmDep := deploymentsLine(warm.String())
	if coldDep == "" || coldDep != warmDep {
		t.Errorf("deployments diverged:\ncold: %q\nwarm: %q", coldDep, warmDep)
	}
}

// TestDriftInjectionAndControl is the command-level drift acceptance: an
// injected synthetic slowdown must fire at least one drift event, apply a
// re-tune and invalidate plan entries, and the written report must
// schema-validate; the identical run WITHOUT injection must stay silent —
// zero events, zero re-tunes, zero invalidations.
func TestDriftInjectionAndControl(t *testing.T) {
	if testing.Short() {
		t.Skip("load-sensitive span timing; the non-short pass runs it once")
	}
	report := filepath.Join(t.TempDir(), "drift_report.json")
	base := []string{"-file", tinyNetFile(t), "-dataset", "mnist",
		"-epochs", "4", "-examples", "64", "-batch", "8", "-workers", "2"}

	var injected bytes.Buffer
	args := append(append([]string{}, base...),
		"-drift-inject-epoch", "3", "-drift-inject-factor", "2.5",
		"-drift-report", report)
	if err := run(args, &injected); err != nil {
		t.Fatal(err)
	}
	out := injected.String()
	if !strings.Contains(out, "drift: injecting synthetic 2.50x slowdown from epoch 3") {
		t.Fatalf("injection did not arm:\n%s", out)
	}
	if strings.Contains(out, "drift: 0 events") {
		t.Fatalf("2.5x slowdown fired no drift event:\n%s", out)
	}
	if strings.Contains(out, "0 re-tunes applied") || strings.Contains(out, "0 plan entries invalidated") {
		t.Fatalf("drift event did not trigger a re-tune:\n%s", out)
	}
	rep, err := spgcnn.ReadDriftReportFile(report)
	if err != nil {
		t.Fatalf("written report does not validate: %v", err)
	}
	// The spg-doctor gates on the fresh report: -max-drifts 0 must fail on
	// it and the agreement floor must hold. Absolute agreement is a host
	// and deployed-strategy property: 14 fresh reports on the 2-vCPU
	// reference host read 0.125-0.384, so spg-doctor's usual 0.2 would
	// flake here; 0.05 is well under the observed minimum and still fails
	// a model or clock regression that collapses agreement.
	if rep.TotalDrifts() < 1 {
		t.Fatalf("validated report carries no drift events: %+v", rep)
	}
	if a := rep.Agreement(); !(a >= 0.05) {
		t.Fatalf("overall agreement %v below the 0.05 floor", a)
	}
	if !strings.Contains(out, "agreement per Fig. 1 region:") {
		t.Fatalf("epilogue missing the per-region agreement table:\n%s", out)
	}

	var control bytes.Buffer
	if err := run(append(append([]string{}, base...), "-drift"), &control); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(control.String(), "drift: 0 events, 0 re-tunes applied, 0 plan entries invalidated") {
		t.Fatalf("control run was not silent:\n%s", control.String())
	}
}

// TestCommandWiring covers flag wiring no library test reaches: a traced
// 2-replica run must write a capture the trace reader validates and
// attributes (stragglers per step group, Eq. 9 waste per conv layer); an
// injected straggler must engage the re-chunker with -mitigate and never
// without it; -save must write a checkpoint that -load restores, into one
// replica or into every replica of a fleet; -profile reports replica 0.
func TestCommandWiring(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "trace.json")
	ckpt := filepath.Join(t.TempDir(), "w.ckpt")
	tiny := []string{"-file", tinyNetFile(t), "-dataset", "mnist", "-epochs", "1", "-examples", "16",
		"-batch", "8", "-workers", "2"}
	straggler := []string{"-net", "mnist", "-epochs", "2", "-examples", "96", "-batch", "16",
		"-replicas", "4", "-allreduce", "ring", "-inject-slow-replica", "1", "-inject-slow-ms", "2.0"}
	with := func(base []string, extra ...string) []string {
		return append(append([]string{}, base...), extra...)
	}
	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, out string)
	}{
		{"traced ring capture",
			with(tiny, "-replicas", "2", "-trace", capture, "-trace-mode", "ring"),
			func(t *testing.T, out string) {
				for _, want := range []string{"trace: wrote", "barrier wait"} {
					if !strings.Contains(out, want) {
						t.Errorf("output missing %q:\n%s", want, out)
					}
				}
				c, err := trace.ReadFile(capture)
				if err != nil {
					t.Fatal(err)
				}
				if err := trace.Validate(c); err != nil {
					t.Fatalf("capture does not validate: %v", err)
				}
				if rep := trace.Stragglers(c); rep.Steps < 1 || rep.SlowestReplica < 0 {
					t.Errorf("straggler attribution found no step groups: %+v", rep)
				}
				var conv0 bool
				for _, r := range trace.GoodputWaste(c).Rows {
					conv0 = conv0 || r.Layer == "conv0"
				}
				if !conv0 {
					t.Error("goodput-waste attribution has no conv0 row")
				}
			}},
		{"straggler mitigation",
			with(straggler, "-mitigate"),
			func(t *testing.T, out string) {
				for _, want := range []string{
					"data-parallel: injecting straggler: replica 1",
					"straggler mitigation on",
					"rechunks",
				} {
					if !strings.Contains(out, want) {
						t.Errorf("mitigated run missing %q:\n%s", want, out)
					}
				}
				var control bytes.Buffer
				if err := run(straggler, &control); err != nil {
					t.Fatal(err)
				}
				if strings.Contains(control.String(), "rechunks") {
					t.Errorf("re-chunker ran without -mitigate:\n%s", control.String())
				}
			}},
		{"checkpoint save and restore",
			with(tiny, "-save", ckpt),
			func(t *testing.T, out string) {
				if !strings.Contains(out, "saved checkpoint "+ckpt) {
					t.Errorf("-save did not report a checkpoint:\n%s", out)
				}
				var restored bytes.Buffer
				if err := run(with(tiny, "-load", ckpt), &restored); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(restored.String(), "restored checkpoint "+ckpt) {
					t.Errorf("-load did not restore the checkpoint:\n%s", restored.String())
				}
				// A fleet restores into every replica: the first epoch's
				// alignment check would refuse a checkpoint that reached
				// replica 0 only.
				var fleet bytes.Buffer
				if err := run(with(tiny, "-replicas", "2", "-load", ckpt), &fleet); err != nil {
					t.Fatal(err)
				}
				if n := strings.Count(fleet.String(), "restored checkpoint "+ckpt); n != 1 {
					t.Errorf("-replicas 2 -load reported the restore %d times, want once:\n%s", n, fleet.String())
				}
				if !strings.Contains(fleet.String(), "epoch  1") || !strings.Contains(fleet.String(), "2 syncs") {
					t.Errorf("restored fleet did not train:\n%s", fleet.String())
				}
			}},
		{"fleet profile",
			with(tiny, "-replicas", "2", "-profile"),
			func(t *testing.T, out string) {
				if !strings.Contains(out, "per-layer time breakdown:") || !strings.Contains(out, "conv0") {
					t.Errorf("-replicas 2 -profile printed no breakdown:\n%s", out)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			tc.check(t, out.String())
		})
	}
}

func deploymentsLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "scheduler deployments:") {
			return line
		}
	}
	return ""
}
