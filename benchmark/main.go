// Command benchmark is the repository's outside-in benchmark harness: four
// train/serve workloads, five end-to-end metrics each (tracing off), and in
// a separate traced run the per-layer ledger, timed around calls into the
// program's public functions. See README.md.
//
//	bash benchmark/run.sh --workload train_cifar --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . compare out/a out/b
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// declFile is where the harness finds the declared metrics and bounds. The
// harness always runs with benchmark/ as its working directory.
const declFile = "../BENCHMARK.json"

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type declaration struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

func loadDeclaration(path string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo explains a result: what the planner deployed (per layer and phase
// or bucket: strategy -> how many of the run's segments deployed it) and
// where it ran.
type runInfo struct {
	Deployed   map[string]map[string]int `json:"deployed"`
	Host       string                    `json:"host"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Notes      []string                  `json:"notes,omitempty"`
}

// runFile is what a run leaves in the output directory; compare reads it.
type runFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Result   result         `json:"result"`
	Samples  map[string]int `json:"samples"`
	// SegmentP50 is each segment's median op time in ms; the spread among
	// them is mostly the planner deploying different strategies.
	SegmentP50 []float64 `json:"segment_op_ms_p50"`
	// SegmentRate is each segment's images (or correct responses) per
	// second.
	SegmentRate []float64 `json:"segment_images_per_s"`
	// Applies lists the per-layer metrics this workload measures. The
	// contract's last line carries every declared name; a name not listed
	// here does not apply to the workload and reads 0 there.
	Applies []string `json:"applies,omitempty"`
	Info    runInfo  `json:"info"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	wrong     int // served responses that contradicted the oracle (a subset of failed)
	inLimit   int
	images    int       // images trained or requests answered correctly
	elapsed   float64   // seconds of measured window
	ops       []float64 // every correct op's time, ms
	segP50    []float64 // each segment's median op time, ms
	segRate   []float64 // each segment's images per second
	setups    []float64 // seconds, one per segment
	liveMB    []float64 // live heap right after a collection at the end of each segment's window
	rssMB     float64   // VmHWM after the last segment
	runtime   runtimeCounters
	ledger    map[string]float64
	samples   map[string]int
	deployed  map[string]map[string]int
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{ledger: map[string]float64{}, samples: map[string]int{}, deployed: map[string]map[string]int{}}
}

// deploy counts one segment's deployed strategies.
func (o *outcome) deploy(seg map[string]string) {
	for k, v := range seg {
		if o.deployed[k] == nil {
			o.deployed[k] = map[string]int{}
		}
		o.deployed[k][v]++
	}
}

// setupTally collects, per segment, the set-up and planner figures both
// kinds of workload report as medians over the run's segments.
type setupTally struct {
	buildMs, coldMs, measurePasses, pruned, agreementRate []float64
}

func (t *setupTally) add(buildMs, coldMs float64, pc planCounters) {
	t.buildMs, t.coldMs = append(t.buildMs, buildMs), append(t.coldMs, coldMs)
	t.measurePasses = append(t.measurePasses, float64(pc.Measurements))
	t.pruned = append(t.pruned, float64(pc.Pruned))
	t.agreementRate = append(t.agreementRate, pc.Agreement)
}

func (t *setupTally) fill(L map[string]float64) {
	L["netdef.build_ms"] = median(t.buildMs)
	L["plan.cold_ms"] = median(t.coldMs)
	L["plan.measure_passes"] = median(t.measurePasses)
	L["plan.pruned_candidates"] = median(t.pruned)
	L["plan.agreement_rate"] = median(t.agreementRate)
}

// runtimeCounters are the Go runtime totals the ledger takes deltas of.
type runtimeCounters struct {
	Mallocs, PauseNs uint64
	GCs              uint32
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{Mallocs: m.Mallocs, PauseNs: m.PauseTotalNs, GCs: m.NumGC}
}

func (a runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.Mallocs - b.Mallocs, a.PauseNs - b.PauseNs, a.GCs - b.GCs}
}

func (a runtimeCounters) plus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.Mallocs + b.Mallocs, a.PauseNs + b.PauseNs, a.GCs + b.GCs}
}

// peakRSSMB is VmHWM of this process in MB, or 0 where /proc has none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed for dataset, weights, request inputs and arrival schedule")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger from a traced run")
	outDir := fs.String("out", "out", "directory for the run's result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	decl, err := loadDeclaration(declFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	spinUp(1500 * time.Millisecond)
	file, err := run(cfg, decl, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.Name, err)
		return 1
	}
	line, err := json.Marshal(file.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !file.Result.Correct {
		return 1
	}
	return 0
}

// run executes one workload and returns its result file, already written to
// outDir and printed in readable form.
func run(cfg workloadCfg, decl declaration, seed uint64, seconds float64, traced bool, outDir string) (*runFile, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder(1 << 18)
	}
	var out *outcome
	var err error
	if cfg.train() {
		out, err = runTrain(cfg, seed, seconds, traced, rec)
	} else {
		out, err = runServe(cfg, seed, seconds, traced, rec)
	}
	if err != nil {
		return nil, err
	}

	file := &runFile{
		Workload: cfg.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Samples: out.samples, SegmentP50: out.segP50, SegmentRate: out.segRate,
		Info:   runInfo{Deployed: out.deployed, Host: hostInfo(), GOMAXPROCS: runtime.GOMAXPROCS(0), Notes: out.notes},
		Result: result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}},
	}
	ops := summarize(out.ops)
	if traced {
		commonLedger(out, ops)
		for _, m := range decl.PerLayer {
			v, applies := out.ledger[m.Name]
			if applies {
				file.Applies = append(file.Applies, m.Name)
			}
			file.Result.Metrics[m.Name] = metric{v, m.Unit}
		}
		for name := range out.ledger {
			if _, ok := file.Result.Metrics[name]; !ok {
				return nil, fmt.Errorf("ledger metric %q is not declared in %s", name, declFile)
			}
		}
		if err := rec.writeFile(filepath.Join(outDir, "trace_"+cfg.Name+".json"), cfg.Name); err != nil {
			return nil, err
		}
	} else {
		// Rate and latency are those of the run's two least disturbed
		// segments: other tenants of the host only ever slow a segment
		// down, and on the reference VM they do so for tens of seconds
		// at a time, which no statistic over all of a run's segments
		// survives.
		e2e := map[string]float64{
			"setup_s":      median(out.setups),
			"images_per_s": mean(best(out.segRate, quietSegments, true)),
			"op_ms_p50":    mean(best(out.segP50, quietSegments, false)),
			"slo_ok_share": float64(out.inLimit) / float64(max(out.attempted, 1)),
			"live_heap_mb": median(out.liveMB),
		}
		file.Samples["op_ms_p50"] = ops.N
		file.Samples["op_ms_p50.segments"] = min(quietSegments, len(out.segP50))
		file.Samples["setup_s"] = len(out.setups)
		for _, m := range decl.EndToEnd {
			v, ok := e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %q is declared in %s but not measured", m.Name, declFile)
			}
			file.Result.Metrics[m.Name] = metric{v, m.Unit}
		}
	}
	for name, m := range file.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}

	printReadable(file, ops)
	kind := "e2e"
	if traced {
		kind = "ledger"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s.seed%d.%s.json", cfg.Name, seed, kind))
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return nil, err
	}
	return file, os.WriteFile(path, append(b, '\n'), 0o644)
}

// spinUp keeps every processor busy for d before anything is timed. After a
// quiet spell the reference VM runs at about half speed for the first second
// or two; without this the first set-up and segment of a run pay for whatever
// ran, or did not run, before it.
func spinUp(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for start := time.Now(); time.Since(start) < d; {
				for j := 0; j < 1<<16; j++ {
					x = x*1.0000001 + 1e-9
				}
			}
			spinSink.Store(math.Float64bits(x))
		}()
	}
	wg.Wait()
}

// spinSink keeps the compiler from dropping spinUp's arithmetic.
var spinSink atomic.Uint64

// quietSegments is how many of a run's segments images_per_s and op_ms_p50
// are taken from: the fastest ones.
const quietSegments = 2

// best returns the n largest (or smallest) of xs.
func best(xs []float64, n int, largest bool) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n > len(s) {
		n = len(s)
	}
	if largest {
		return s[len(s)-n:]
	}
	return s[:n]
}

// liveHeapMB collects garbage and returns the bytes of heap objects still
// reachable, in MB: what the program and harness retain, without the
// uncollected garbage that makes resident size swing between one and two
// times this figure.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// commonLedger fills the rows every workload has: runtime and bench.
func commonLedger(out *outcome, ops dist) {
	L := out.ledger
	L["runtime.peak_rss_mb"] = out.rssMB
	n := float64(max(out.attempted, 1))
	L["runtime.allocs_per_op"] = float64(out.runtime.Mallocs) / n
	L["runtime.gc_pause_ms"] = float64(out.runtime.PauseNs) / 1e6
	L["runtime.gc_cycles"] = float64(out.runtime.GCs)
	L["bench.op_ms_p95"] = ops.P95
	L["bench.op_ms_max"] = ops.Max
	L["bench.samples"] = float64(ops.N)
	out.samples["bench.op_ms"] = ops.N
	if ops.Tail < 95 {
		out.notes = append(out.notes, fmt.Sprintf(
			"bench.op_ms_p95 has fewer than ten samples beyond it (n=%d); the highest supported percentile is p%g = %.4g ms",
			ops.N, ops.Tail, ops.TailVal))
	}
}

// printReadable prints every metric by name with its unit, then counts and
// context, above the contract's last line.
func printReadable(f *runFile, ops dist) {
	mode := "tracing off, end-to-end metrics"
	if f.Traced {
		mode = "traced run, per-layer ledger (bytes behind GB/s figures are computed from tensor sizes)"
	}
	fmt.Printf("workload %s  seed %d  window %gs  %s\n", f.Workload, f.Seed, f.Seconds, mode)
	names := make([]string, 0, len(f.Result.Metrics))
	for n := range f.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	applies := map[string]bool{}
	for _, n := range f.Applies {
		applies[n] = true
	}
	for _, n := range names {
		if f.Traced && !applies[n] {
			continue // does not apply to this workload
		}
		m := f.Result.Metrics[n]
		fmt.Printf("  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  ops attempted %d, failed %d; op time samples %d (p50 %.4g ms, p%g %.4g ms, max %.4g ms)\n",
		f.Result.Attempted, f.Result.Failed, ops.N, ops.P50, ops.Tail, ops.TailVal, ops.Max)
	fmt.Printf("  per segment: op_ms_p50 %.4g\n", f.SegmentP50)
	fmt.Printf("  per segment: images_per_s %.4g\n", f.SegmentRate)
	keys := make([]string, 0, len(f.Samples))
	for k := range f.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples behind %-28s %d\n", k, f.Samples[k])
	}
	for _, n := range f.Info.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  host %s  GOMAXPROCS %d  (%s)\n", f.Info.Host, f.Info.GOMAXPROCS, time.Now().UTC().Format(time.RFC3339))
}
