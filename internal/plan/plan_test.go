package plan

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// The fake strategies mirror core's autoconv tests: no real compute, and
// every verdict is decided by the costs fake kernels charge to the scripted
// clock of the context they run under (newCtx). That clock stands still
// until charged, so a measurement reads exactly the charged cost and no
// verdict depends on the host's load. They carry no analytical model, so
// the planner's prune pass leaves them untouched and the measured path sees
// every candidate — exactly the pre-planner ChooseFP/ChooseBP behavior.
type fakeKernel struct {
	spec   conv.Spec
	name   string
	fpCost time.Duration
	bpCost func(sparsity float64) time.Duration
}

// clocks maps each newCtx context's probe to its scripted clock reading.
var clocks sync.Map // *exec.Probe -> *atomic.Int64

// newCtx is exec.New on a scripted clock that moves only when a fake kernel
// charges it.
func newCtx(workers int) *exec.Ctx {
	ctx := exec.New(workers)
	ns := new(atomic.Int64)
	clocks.Store(ctx.Probe(), ns)
	ctx.Probe().SetClock(func() time.Duration { return time.Duration(ns.Load()) })
	return ctx
}

// charge advances the scripted clock of c, a newCtx context, by d.
func charge(c *exec.Ctx, d time.Duration) {
	ns, ok := clocks.Load(c.Probe())
	if !ok {
		panic("plan test: fake kernel ran outside a newCtx context")
	}
	ns.(*atomic.Int64).Add(int64(d))
}

func (k fakeKernel) Name() string    { return k.name }
func (k fakeKernel) Spec() conv.Spec { return k.spec }

func (k fakeKernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	charge(c, k.fpCost)
}

func (k fakeKernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if k.bpCost == nil {
		return
	}
	var sum float64
	for _, eo := range eos {
		sum += eo.Sparsity()
	}
	charge(c, k.bpCost(sum/float64(len(eos))))
}

func (k fakeKernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
}

func fakeStrategy(name string, fpCost time.Duration, bpCost func(float64) time.Duration) core.Strategy {
	return core.Strategy{
		Name: name,
		Gen: engine.Generator{
			Name: name,
			New: func(s conv.Spec) engine.Kernel {
				return fakeKernel{spec: s, name: name, fpCost: fpCost, bpCost: bpCost}
			},
		},
	}
}

func fakeFP() []core.Strategy {
	return []core.Strategy{
		fakeStrategy("slow-fp", 5*time.Millisecond, nil),
		fakeStrategy("fast-fp", 0, nil),
	}
}

// fakeBP has the Fig. 3b crossover: dense-friendly wins while gradients
// are dense, sparse-friendly only once they are sparse.
func fakeBP() []core.Strategy {
	return []core.Strategy{
		fakeStrategy("dense-friendly", 0, func(sp float64) time.Duration {
			if sp >= 0.5 {
				return 2 * time.Millisecond
			}
			return 0
		}),
		fakeStrategy("sparse-friendly", 0, func(sp float64) time.Duration {
			if sp >= 0.5 {
				return 0
			}
			return 20 * time.Millisecond
		}),
	}
}

func fakePlanner() *Planner {
	return New(Options{
		FP: func(int) []core.Strategy { return fakeFP() },
		BP: func(int) []core.Strategy { return fakeBP() },
	})
}

func sampleTensors(t *testing.T, s conv.Spec, n int, sparsity float64) (ins, eos []*tensor.Tensor, w *tensor.Tensor) {
	t.Helper()
	r := rng.New(7)
	for i := 0; i < n; i++ {
		ins = append(ins, conv.RandInput(r, s))
		eos = append(eos, conv.RandOutputError(r, s, sparsity))
	}
	return ins, eos, conv.RandWeights(r, s)
}

func tuneSpans(c *exec.Ctx) []string {
	var out []string
	for name := range c.Probe().Spans() {
		if strings.HasPrefix(name, "tune/") {
			out = append(out, name)
		}
	}
	return out
}

var testSpec = conv.Square(8, 4, 2, 3, 1)

// TestColdPathMatchesChoose pins the acceptance criterion that promoting
// selection into the planner does not change cold-path verdicts: for
// unmodeled (hence unpruned) candidate sets, the planner's first selection
// and a direct ChooseFP/ChooseBP run must pick the same winner and
// measure the same candidates in the same order.
func TestColdPathMatchesChoose(t *testing.T) {
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)

	p := fakePlanner()
	ctx := newCtx(2)
	fpGot := p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
	bpGot := p.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{})
	if fpGot.FromCache || bpGot.FromCache {
		t.Fatal("first selections must not come from the cache")
	}

	ref := newCtx(2)
	fpWant := core.ChooseFP(fakeFP(), testSpec, ref, ins, w, core.TuneOptions{})
	bpWant := core.ChooseBP(fakeBP(), testSpec, ref, eos, ins, w, core.TuneOptions{})

	if got, want := fpGot.Chosen.Strategy().Name, fpWant.Chosen.Strategy().Name; got != want {
		t.Errorf("FP winner %q, direct ChooseFP picked %q", got, want)
	}
	if got, want := bpGot.Chosen.Strategy().Name, bpWant.Chosen.Strategy().Name; got != want {
		t.Errorf("BP winner %q, direct ChooseBP picked %q", got, want)
	}
	for i := range fpWant.Timings {
		if fpGot.Timings[i].Strategy.Name != fpWant.Timings[i].Strategy.Name {
			t.Errorf("FP measured %q at slot %d, direct run measured %q",
				fpGot.Timings[i].Strategy.Name, i, fpWant.Timings[i].Strategy.Name)
		}
	}
	if len(fpGot.Timings) != len(fpWant.Timings) || len(bpGot.Timings) != len(bpWant.Timings) {
		t.Errorf("measurement table sizes diverged: fp %d vs %d, bp %d vs %d",
			len(fpGot.Timings), len(fpWant.Timings), len(bpGot.Timings), len(bpWant.Timings))
	}
}

// TestWarmPathZeroTuneSpans is the tentpole's acceptance test: a second
// request for the same key under a fresh execution context deploys the
// cached verdict — FromCache set, the deployment recorded as a probe
// choice, and crucially not a single tune/* span on the new context.
func TestWarmPathZeroTuneSpans(t *testing.T) {
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)
	p := fakePlanner()

	ctx1 := newCtx(2)
	p.PlanFP(testSpec, ctx1, ins, w, core.TuneOptions{})
	p.PlanBP(testSpec, ctx1, eos, ins, w, core.TuneOptions{})
	if len(tuneSpans(ctx1)) == 0 {
		t.Fatal("cold context should carry tune spans")
	}

	ctx2 := newCtx(2)
	fp := p.PlanFP(testSpec, ctx2, ins, w, core.TuneOptions{})
	bp := p.PlanBP(testSpec, ctx2, eos, ins, w, core.TuneOptions{})
	if !fp.FromCache || !bp.FromCache {
		t.Fatalf("warm requests should deploy from cache (fp %v, bp %v)", fp.FromCache, bp.FromCache)
	}
	if spans := tuneSpans(ctx2); len(spans) != 0 {
		t.Errorf("warm context measured: %v", spans)
	}
	if got := len(ctx2.Probe().Choices()); got != 2 {
		t.Errorf("warm deployments recorded %d probe choices, want 2", got)
	}
	if fp.Chosen.Strategy().Name != "fast-fp" {
		t.Errorf("warm FP deployed %q, want fast-fp", fp.Chosen.Strategy().Name)
	}
	if len(fp.Timings) != 2 {
		t.Errorf("warm verdict lost its measurement table: %d timings", len(fp.Timings))
	}
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Measurements != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses / 2 measurements", st)
	}
}

// TestSingleFlight hammers one cold key from many goroutines: exactly one
// measurement pass may run; everyone else waits and deploys the shared
// verdict.
func TestSingleFlight(t *testing.T) {
	ins, _, w := sampleTensors(t, testSpec, 2, 0)
	p := fakePlanner()

	const callers = 8
	var wg sync.WaitGroup
	winners := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := newCtx(2)
			pd := p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
			winners[i] = pd.Chosen.Strategy().Name
		}(i)
	}
	wg.Wait()

	st := p.Stats()
	if st.Measurements != 1 {
		t.Errorf("%d measurement passes ran, want exactly 1 (stats %+v)", st.Measurements, st)
	}
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
	for i, name := range winners {
		if name != winners[0] {
			t.Errorf("caller %d deployed %q, caller 0 deployed %q", i, name, winners[0])
		}
	}
}

// TestBPBandShiftRemeasures exercises the §4.4 invalidation: the same BP
// request re-keys (and re-measures) when gradient sparsity crosses into a
// new band, and the crossover flips the winner.
func TestBPBandShiftRemeasures(t *testing.T) {
	p := fakePlanner()
	ctx := newCtx(2)

	ins, denseEOs, w := sampleTensors(t, testSpec, 2, 0)
	dense := p.PlanBP(testSpec, ctx, denseEOs, ins, w, core.TuneOptions{})
	if got := dense.Chosen.Strategy().Name; got != "dense-friendly" {
		t.Fatalf("dense BP deployed %q, want dense-friendly", got)
	}

	// Same band → cache hit, no re-measurement.
	again := p.PlanBP(testSpec, ctx, denseEOs, ins, w, core.TuneOptions{})
	if !again.FromCache {
		t.Error("in-band re-plan should hit the cache")
	}

	_, sparseEOs, _ := sampleTensors(t, testSpec, 2, 0.95)
	sparse := p.PlanBP(testSpec, ctx, sparseEOs, ins, w, core.TuneOptions{})
	if sparse.FromCache {
		t.Error("band shift must invalidate the cached verdict and re-measure")
	}
	if got := sparse.Chosen.Strategy().Name; got != "sparse-friendly" {
		t.Errorf("sparse BP deployed %q, want sparse-friendly", got)
	}
	if st := p.Stats(); st.Measurements != 2 {
		t.Errorf("%d measurement passes, want 2 (one per band)", st.Measurements)
	}
}

// TestInvalidateSpecMarksDeployedVerdictsStale: every verdict a planner
// hands out — measured, cache hit, or loaded from a file — carries a
// staleness flag that InvalidateSpec flips for the dropped (spec, phase)
// and for nothing else, so the layers holding it re-plan.
func TestInvalidateSpecMarksDeployedVerdictsStale(t *testing.T) {
	p := fakePlanner()
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)
	fp := p.PlanFP(testSpec, newCtx(1), ins, w, core.TuneOptions{})
	cold := p.PlanBP(testSpec, newCtx(1), eos, ins, w, core.TuneOptions{})
	warm := p.PlanBP(testSpec, newCtx(1), eos, ins, w, core.TuneOptions{})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := fakePlanner()
	if _, err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	fromFile := loaded.PlanBP(testSpec, newCtx(1), eos, ins, w, core.TuneOptions{})
	if !warm.FromCache || !fromFile.FromCache {
		t.Fatal("repeat and loaded requests should deploy from cache")
	}
	for _, pd := range []core.Planned{fp, cold, warm, fromFile} {
		if pd.Stale == nil || pd.Stale.Load() {
			t.Fatalf("fresh verdict %s has staleness flag %v", pd.Chosen.Strategy().Name, pd.Stale)
		}
	}

	p.InvalidateSpec(testSpec, "bp")
	loaded.InvalidateSpec(testSpec, "")
	if !cold.Stale.Load() || !warm.Stale.Load() || !fromFile.Stale.Load() {
		t.Fatal("an invalidated BP verdict is not marked stale")
	}
	if fp.Stale.Load() {
		t.Fatal("invalidating BP marked the FP verdict stale")
	}
	if again := p.PlanBP(testSpec, newCtx(1), eos, ins, w, core.TuneOptions{}); again.Stale.Load() {
		t.Fatal("the re-measured verdict is born stale")
	}
}

// TestPersistenceRoundTrip saves a measured planner and loads it into a
// fresh one: the fresh planner must deploy every verdict with zero
// measurement passes, and the verdicts must match.
func TestPersistenceRoundTrip(t *testing.T) {
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)
	host := machine.Host{OS: "linux", Arch: "amd64", CPUs: 4, GoVersion: "go-test", Hostname: "h1"}

	a := New(Options{
		Host: host,
		FP:   func(int) []core.Strategy { return fakeFP() },
		BP:   func(int) []core.Strategy { return fakeBP() },
	})
	ctx := newCtx(2)
	fpCold := a.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
	a.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{})

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	b := New(Options{
		Host: host,
		FP:   func(int) []core.Strategy { return fakeFP() },
		BP:   func(int) []core.Strategy { return fakeBP() },
	})
	n, err := b.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d entries, want 2", n)
	}

	ctx2 := newCtx(2)
	fpWarm := b.PlanFP(testSpec, ctx2, ins, w, core.TuneOptions{})
	bpWarm := b.PlanBP(testSpec, ctx2, eos, ins, w, core.TuneOptions{})
	if !fpWarm.FromCache || !bpWarm.FromCache {
		t.Fatal("loaded planner should deploy from cache")
	}
	if st := b.Stats(); st.Measurements != 0 {
		t.Errorf("loaded planner ran %d measurement passes, want 0", st.Measurements)
	}
	if fpWarm.Chosen.Strategy().Name != fpCold.Chosen.Strategy().Name {
		t.Errorf("round trip changed the FP verdict: %q -> %q",
			fpCold.Chosen.Strategy().Name, fpWarm.Chosen.Strategy().Name)
	}
	if spans := tuneSpans(ctx2); len(spans) != 0 {
		t.Errorf("loaded planner measured: %v", spans)
	}
}

// TestLoadRejectsWrongSchema pins the schema gate.
func TestLoadRejectsWrongSchema(t *testing.T) {
	p := fakePlanner()
	if _, err := p.Load(strings.NewReader(`{"schema": 99, "entries": []}`)); err == nil {
		t.Fatal("schema 99 loaded without error")
	}
	if _, err := p.Load(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage loaded without error")
	}
}

// TestLoadSkipsMalformedEntries verifies defensive validation: entries
// with empty strategies, bad phases or invalid geometry are dropped, valid
// siblings survive.
func TestLoadSkipsMalformedEntries(t *testing.T) {
	ins, _, w := sampleTensors(t, testSpec, 2, 0)
	a := fakePlanner()
	a.PlanFP(testSpec, newCtx(2), ins, w, core.TuneOptions{})
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doctored := strings.Replace(buf.String(), `"entries": [`,
		`"entries": [ {"host":"x","spec":{},"workers":1,"phase":"fp","band":0,"chosen":"ghost","seconds":1},
		 {"host":"x","spec":`+specJSON(t, testSpec)+`,"workers":1,"phase":"sideways","band":0,"chosen":"g","seconds":1},`, 1)
	b := fakePlanner()
	n, err := b.Load(strings.NewReader(doctored))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("adopted %d entries, want only the 1 valid one", n)
	}
}

func specJSON(t *testing.T, s conv.Spec) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLoadFileMissingIsColdStart: a nonexistent cache file is the normal
// first run, not an error.
func TestLoadFileMissingIsColdStart(t *testing.T) {
	p := fakePlanner()
	n, err := p.LoadFile(t.TempDir() + "/nope.json")
	if err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
}

// TestHostMismatchNeverDeploys: entries measured on another host round-
// trip through Save but can never satisfy a lookup here.
func TestHostMismatchNeverDeploys(t *testing.T) {
	ins, _, w := sampleTensors(t, testSpec, 2, 0)
	other := machine.Host{OS: "plan9", Arch: "riscv64", CPUs: 2, GoVersion: "go-test", Hostname: "elsewhere"}
	a := New(Options{
		Host: other,
		FP:   func(int) []core.Strategy { return fakeFP() },
		BP:   func(int) []core.Strategy { return fakeBP() },
	})
	a.PlanFP(testSpec, newCtx(2), ins, w, core.TuneOptions{})
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	b := fakePlanner() // this host's fingerprint
	if _, err := b.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	pd := b.PlanFP(testSpec, newCtx(2), ins, w, core.TuneOptions{})
	if pd.FromCache {
		t.Fatal("a verdict measured on another host deployed here")
	}
}

// TestModelRankBuiltins sanity-checks the model pass over the real
// candidate sets: everything is modeled, sparse converts goodput onto the
// dense axis, and high sparsity ranks sparse first for a Region 5 layer.
func TestModelRankBuiltins(t *testing.T) {
	m := machine.Paper()
	s := conv.Square(36, 64, 3, 5, 1)

	fp := ModelRank(m, s, "fp", 0, 16, []string{"parallel-gemm", "gemm-in-parallel", "stencil"})
	for _, sc := range fp {
		if !sc.Modeled || sc.GFlopsPerCore <= 0 {
			t.Errorf("FP %q unmodeled or nonpositive: %+v", sc.Strategy, sc)
		}
	}
	if fp[0].Strategy != "stencil" {
		t.Errorf("FP top pick %q; the paper's low-AIT small-Nc layer favors stencil", fp[0].Strategy)
	}

	bp := ModelRank(m, s, "bp", 0.95, 16, []string{"parallel-gemm", "gemm-in-parallel", "sparse"})
	if bp[0].Strategy != "sparse" {
		t.Errorf("BP top pick at 95%% sparsity is %q, want sparse", bp[0].Strategy)
	}

	unknown := ModelRank(m, s, "fp", 0, 16, []string{"stencil", "mystery"})
	if unknown[len(unknown)-1].Strategy != "mystery" || unknown[len(unknown)-1].Modeled {
		t.Errorf("unmodeled candidate should sort last unmodeled: %+v", unknown)
	}
}

// TestPruneGuards pins the three never-prune rules: top-modeled,
// region-recommended, unmodeled.
func TestPruneGuards(t *testing.T) {
	cands := []core.Strategy{
		{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
	}
	scores := []ModelScore{
		{Strategy: "a", GFlopsPerCore: 100, Modeled: true},
		{Strategy: "b", GFlopsPerCore: 5, Modeled: true},
		{Strategy: "c", GFlopsPerCore: 1, Modeled: true},
		{Strategy: "d", Modeled: false},
	}
	survivors, pruned := prune(cands, scores, map[string]bool{"c": true})
	names := func(ss []core.Strategy) string {
		var b strings.Builder
		for _, s := range ss {
			b.WriteString(s.Name)
		}
		return b.String()
	}
	// a: top pick, survives. b: 5 < DefaultPruneRatio*100, pruned. c: below
	// the ratio but recommended, survives. d: unmodeled, survives. Order
	// preserved.
	if names(survivors) != "acd" {
		t.Errorf("survivors %q, want acd", names(survivors))
	}
	if len(pruned) != 1 || pruned[0] != "b" {
		t.Errorf("pruned %v, want [b]", pruned)
	}
}

// TestFingerprintDistinguishesHosts: two hosts differing in any field key
// differently.
func TestFingerprintDistinguishesHosts(t *testing.T) {
	a := machine.Host{OS: "linux", Arch: "amd64", CPUs: 8, GoVersion: "go1.22", Hostname: "a"}
	b := a
	b.CPUs = 16
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("differing CPU counts produced the same fingerprint")
	}
}

// TestModelRanksNewFPCandidates: the grown FP candidates are modeled, the
// blocked engine is FP-only in the model, and at heavy weight sparsity
// the sparse-weight candidate tops the FP ranking (the Fig. 1 sparse
// region of the tentpole's acceptance criteria).
func TestModelRanksNewFPCandidates(t *testing.T) {
	m := machine.Paper()
	s := conv.Square(36, 64, 3, 5, 1)
	names := []string{"parallel-gemm", "gemm-in-parallel", "stencil", "gemm-packed", "blocked", "sparse-weight"}
	byName := func(scores []ModelScore, n string) ModelScore {
		for _, sc := range scores {
			if sc.Strategy == n {
				return sc
			}
		}
		t.Fatalf("%s not scored", n)
		return ModelScore{}
	}

	dense := ModelRank(m, s, "fp", 0, 4, names)
	if sc := byName(dense, "blocked"); !sc.Modeled || sc.GFlopsPerCore <= 0 {
		t.Fatalf("blocked not modeled: %+v", sc)
	}
	if sc := byName(dense, "sparse-weight"); !sc.Modeled {
		t.Fatalf("sparse-weight not modeled: %+v", sc)
	}
	// Dense weights: sparse-weight must NOT outrank the blocked engine.
	if dense[0].Strategy == "sparse-weight" {
		t.Fatal("sparse-weight tops the dense-weight FP ranking")
	}

	pruned := ModelRank(m, s, "fp", 0.95, 4, names)
	if pruned[0].Strategy != "sparse-weight" {
		t.Fatalf("at 95%% weight sparsity the FP ranking starts with %q, want sparse-weight", pruned[0].Strategy)
	}

	// Neither new candidate models as a BP strategy.
	for _, n := range []string{"blocked", "sparse-weight"} {
		if _, ok := ModelRate(m, s, "bp", 0, 4, n); ok {
			t.Fatalf("%s claims a BP model", n)
		}
	}
}

// TestCachedRetiredStrategiesRemeasure loads a plan cache whose FP and BP
// verdicts name strategies the candidate sets do not hold, as a cache
// saved before an engine's retirement would: both lookups must count a
// miss, re-measure, and deploy a live candidate.
func TestCachedRetiredStrategiesRemeasure(t *testing.T) {
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)
	old := New(Options{
		FP: func(int) []core.Strategy { return []core.Strategy{fakeStrategy("retired-fp", 0, nil)} },
		BP: func(int) []core.Strategy { return []core.Strategy{fakeStrategy("retired-bp", 0, nil)} },
	})
	ctx := newCtx(2)
	old.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
	old.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{})
	var buf bytes.Buffer
	if err := old.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{`"retired-fp"`, `"retired-bp"`} {
		if !strings.Contains(buf.String(), retired) {
			t.Fatalf("saved cache does not name %s:\n%s", retired, buf.String())
		}
	}

	p := New(Options{})
	if n, err := p.Load(&buf); err != nil || n != 2 {
		t.Fatalf("Load = %d, %v; want 2 entries", n, err)
	}
	live := func(cands []core.Strategy, name string) bool {
		for _, st := range cands {
			if st.Name == name {
				return true
			}
		}
		return false
	}
	fp := p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
	if fp.FromCache || !live(core.FPStrategies(ctx.Workers()), fp.Chosen.Strategy().Name) {
		t.Fatalf("FP deployed %q (from cache %v), want a re-measured live candidate", fp.Chosen.Strategy().Name, fp.FromCache)
	}
	bp := p.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{})
	if bp.FromCache || !live(core.BPStrategies(ctx.Workers()), bp.Chosen.Strategy().Name) {
		t.Fatalf("BP deployed %q (from cache %v), want a re-measured live candidate", bp.Chosen.Strategy().Name, bp.FromCache)
	}
	if st := p.Stats(); st.Misses != 2 || st.Hits != 0 || st.Measurements != 2 {
		t.Fatalf("stats %+v: want 2 misses, 0 hits, 2 measurement passes", st)
	}
}

// TestPlannerSelectsSparseWeightForPrunedLayer is the measured acceptance
// test: on a real geometry with weights pruned to ~97%, the planner's
// measured FP pass must deploy the sparse-weight engine — it executes
// ~3% of the dense multiply-adds, a margin far beyond timing noise.
func TestPlannerSelectsSparseWeightForPrunedLayer(t *testing.T) {
	s := conv.Square(16, 16, 8, 3, 1)
	r := rng.New(42)
	var ins []*tensor.Tensor
	for i := 0; i < 4; i++ {
		ins = append(ins, conv.RandInput(r, s))
	}
	w := conv.RandWeights(r, s)
	w.Sparsify(r, 0.97)
	w.Bump()

	p := New(Options{})
	ctx := exec.New(2)
	pd := p.PlanFP(s, ctx, ins, w, core.TuneOptions{})
	if got := pd.Selection.Chosen.Strategy().Name; got != "sparse-weight" {
		t.Fatalf("planner deployed %q for a 97%%-pruned layer, want sparse-weight (timings: %+v)",
			got, pd.Selection.Timings)
	}
	// The verdict is keyed on the weight-density band, so a dense-weight
	// request for the same spec must NOT reuse it.
	wDense := conv.RandWeights(r, s)
	wDense.Bump()
	pd2 := p.PlanFP(s, ctx, ins, wDense, core.TuneOptions{})
	if pd2.FromCache {
		t.Fatal("dense-weight request reused the pruned-weight verdict")
	}
}

// TestBatchBucketsKeySeparately pins the serving-path keying: requests
// carrying a TuneOptions.Batch bucket measure and cache independently of
// the unkeyed (training) verdict and of other buckets, while repeated
// requests for the same bucket deploy from cache.
func TestBatchBucketsKeySeparately(t *testing.T) {
	ins, _, w := sampleTensors(t, testSpec, 2, 0)
	p := fakePlanner()
	ctx := newCtx(2)

	p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})         // unkeyed (training)
	p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{Batch: 4}) // bucket 4
	p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{Batch: 8}) // bucket 8
	if st := p.Stats(); st.Misses != 3 || st.Measurements != 3 {
		t.Fatalf("distinct buckets must measure separately: %d misses, %d measurements, want 3 each",
			st.Misses, st.Measurements)
	}

	warm := p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{Batch: 4})
	if !warm.FromCache {
		t.Fatal("repeated bucket request should deploy from cache")
	}
	if st := p.Stats(); st.Hits != 1 || st.Measurements != 3 {
		t.Fatalf("warm bucket request re-measured: %+v", st)
	}

	// Negative buckets clamp to the unkeyed verdict instead of minting keys.
	if got := p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{Batch: -3}); !got.FromCache {
		t.Fatal("negative batch should hit the unkeyed (Batch 0) entry")
	}
}

// TestBatchKeyPersistence round-trips batch-keyed verdicts through
// Save/Load and checks that pre-batch-keying cache files (no "batch"
// field) still load as unkeyed entries — no schema bump.
func TestBatchKeyPersistence(t *testing.T) {
	ins, _, w := sampleTensors(t, testSpec, 2, 0)
	host := machine.Host{OS: "linux", Arch: "amd64", CPUs: 4, GoVersion: "go-test", Hostname: "h1"}
	mk := func() *Planner {
		return New(Options{
			Host: host,
			FP:   func(int) []core.Strategy { return fakeFP() },
			BP:   func(int) []core.Strategy { return fakeBP() },
		})
	}

	a := mk()
	ctx := newCtx(2)
	a.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
	a.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{Batch: 4})

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The unkeyed entry must serialize without a batch field at all.
	if bytes.Contains(buf.Bytes(), []byte(`"batch": 0`)) {
		t.Error("unkeyed entries must omit the batch field (old caches stay byte-compatible)")
	}

	b := mk()
	if n, err := b.Load(bytes.NewReader(buf.Bytes())); err != nil || n != 2 {
		t.Fatalf("Load = %d, %v; want 2 entries", n, err)
	}
	if got := b.PlanFP(testSpec, newCtx(2), ins, w, core.TuneOptions{Batch: 4}); !got.FromCache {
		t.Fatal("batch-keyed verdict did not survive the round trip")
	}
	if got := b.PlanFP(testSpec, newCtx(2), ins, w, core.TuneOptions{}); !got.FromCache {
		t.Fatal("unkeyed verdict did not survive the round trip")
	}
	if st := b.Stats(); st.Measurements != 0 {
		t.Errorf("loaded planner ran %d measurement passes, want 0", st.Measurements)
	}

	// A negative batch in a hand-edited file is malformed, not adoptable.
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	f.Entries[0].Batch = -1
	raw, _ := json.Marshal(f)
	c := mk()
	if n, _ := c.Load(bytes.NewReader(raw)); n != 1 {
		t.Errorf("Load adopted %d entries, want 1 (negative batch dropped)", n)
	}
}

// TestPlannerDeploysSparseWhereThePaperSays is the measured Fig. 7 claim on
// the real engines: for CIFAR conv0's geometry the planner's BP verdict is
// the Sparse-Kernel at the layer's measured 0.94 gradient sparsity and a
// dense GEMM engine well below the crossover — with and without the input
// gradient. The full pass (Eq. 3 + Eq. 4) crosses between 0.60 and 0.75, the
// first layer's Eq. 4 alone near 0.50; each dense point sits where the best
// dense engine measured at least 15 % faster than sparse in every one of 30
// plans, so host noise cannot flip the verdict.
func TestPlannerDeploysSparseWhereThePaperSays(t *testing.T) {
	if testing.Short() {
		t.Skip("times real kernels; margins do not survive the race detector's slowdown")
	}
	s := conv.Square(36, 64, 3, 5, 1)
	ctx := exec.New(2)
	for _, mode := range []struct {
		noEI  bool
		dense float64
	}{{false, 0.30}, {true, 0.20}} {
		for _, tc := range []struct {
			sparsity float64
			sparse   bool
		}{{0.94, true}, {mode.dense, false}} {
			ins, eos, w := sampleTensors(t, s, 2, tc.sparsity)
			p := New(Options{})
			pd := p.PlanBP(s, ctx, eos, ins, w, core.TuneOptions{NoInputGrad: mode.noEI})
			if got := pd.Selection.Chosen.Strategy().Name; (got == "sparse") != tc.sparse {
				t.Errorf("EO sparsity %.2f, input gradient elided %v: deployed %q (timings %+v)",
					tc.sparsity, mode.noEI, got, pd.Selection.Timings)
			}
		}
	}
}

// TestFirstLayerVerdictsKeySeparately: a BP verdict measured without Eq. 3
// never serves a same-spec request that needs the input gradient, or the
// other way round, in memory and across Save/Load; files written before the
// key existed load as full-pass verdicts.
func TestFirstLayerVerdictsKeySeparately(t *testing.T) {
	ins, eos, w := sampleTensors(t, testSpec, 2, 0.9)
	p := fakePlanner()
	ctx := newCtx(2)
	p.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{NoInputGrad: true})
	if pd := p.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{}); pd.FromCache {
		t.Fatal("a mid-network request deployed the first layer's verdict")
	}
	if st := p.Stats(); st.Measurements != 2 {
		t.Fatalf("%d measurement passes, want 2", st.Measurements)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"no_input_grad"`)); n != 1 {
		t.Fatalf("saved cache mentions no_input_grad %d times, want 1 (omitted when false)", n)
	}
	q := fakePlanner()
	if n, err := q.Load(&buf); err != nil || n != 2 {
		t.Fatalf("Load = %d, %v; want 2 entries", n, err)
	}
	for _, noEI := range []bool{true, false} {
		if pd := q.PlanBP(testSpec, ctx, eos, ins, w, core.TuneOptions{NoInputGrad: noEI}); !pd.FromCache {
			t.Fatalf("verdict with NoInputGrad=%v did not survive the round trip", noEI)
		}
	}
	// FP has no input gradient to drop: the flag must not split FP keys.
	p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{})
	if pd := p.PlanFP(testSpec, ctx, ins, w, core.TuneOptions{NoInputGrad: true}); !pd.FromCache {
		t.Fatal("NoInputGrad split an FP key")
	}
}
