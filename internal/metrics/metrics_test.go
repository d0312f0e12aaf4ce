package metrics

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"spgcnn/internal/exec"
	"spgcnn/internal/nn"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Same name+labels returns the same instrument.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	h := r.Histogram("lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 555.5 {
		t.Fatalf("hist snapshot = %+v", s)
	}
	want := []uint64{1, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flips", "", "phase", "fp")
	b := r.Counter("flips", "", "phase", "bp")
	if a == b {
		t.Fatal("different labels returned the same series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatal("label series share state")
	}
}

func TestSpanTreeRollup(t *testing.T) {
	r := NewRegistry()
	r.ObserveSpan("layer/conv1/fp/stencil", 0.010)
	r.ObserveSpan("layer/conv1/fp/stencil", 0.020)
	r.ObserveSpan("layer/conv1/bp/sparse", 0.005)
	r.ObserveSpan("layer/conv2/fp/stencil", 0.001)

	tree := r.SpanTree()
	conv1 := tree.Find("layer/conv1")
	if conv1 == nil {
		t.Fatal("layer/conv1 missing from tree")
	}
	if conv1.Total.Calls != 3 {
		t.Fatalf("conv1 rollup calls = %d, want 3", conv1.Total.Calls)
	}
	if got := conv1.Total.Seconds; got < 0.0349 || got > 0.0351 {
		t.Fatalf("conv1 rollup seconds = %v, want 0.035", got)
	}
	if conv1.Total.Min != 0.005 || conv1.Total.Max != 0.020 {
		t.Fatalf("conv1 rollup min/max = %v/%v", conv1.Total.Min, conv1.Total.Max)
	}
	layer := tree.Find("layer")
	if layer.Total.Calls != 4 {
		t.Fatalf("layer rollup calls = %d, want 4", layer.Total.Calls)
	}
	st, ok := r.Span("layer/conv1/fp/stencil")
	if !ok || st.Calls != 2 || st.Min != 0.010 || st.Max != 0.020 {
		t.Fatalf("leaf span stats = %+v ok=%v", st, ok)
	}
}

func TestWritePrometheusDeterministicAndWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second", "k", "v").Add(2)
	r.Counter("a_total", "first").Inc()
	r.Gauge("g", "a gauge").Set(1.5)
	r.GaugeFunc("fn", "computed", func() float64 { return 7 })
	r.Histogram("h_seconds", "hist", []float64{0.1, 1}).Observe(0.5)
	r.ObserveSpan("layer/c1/fp", 0.002)

	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("two renders of the same state differ")
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE a_total counter",
		"a_total 1",
		`b_total{k="v"} 2`,
		"# TYPE g gauge",
		"g 1.5",
		"fn 7",
		`h_seconds_bucket{le="0.1"} 0`,
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_sum 0.5",
		"h_seconds_count 1",
		`spg_span_seconds_count{span="layer/c1/fp"} 1`,
		`spg_span_min_seconds{span="layer/c1/fp"} 0.002`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "# TYPE a_total") > strings.Index(out, "# TYPE b_total") {
		t.Fatal("families not sorted")
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"layer/conv1-fp": "layer_conv1_fp",
		"9lives":         "_9lives",
		"ok_name:x":      "ok_name:x",
	} {
		if got := SanitizeName(in); got != want {
			t.Fatalf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBindStreamsProbeIntoRegistry(t *testing.T) {
	r := NewRegistry()
	c := exec.New(2)
	Bind(c, r)
	c.Probe().Observe("core/fp/stencil", 0.003)
	c.Probe().RecordChoice("bp", "sparse", 0.001)

	if st, ok := r.Span("core/fp/stencil"); !ok || st.Calls != 1 {
		t.Fatalf("span not bridged: %+v ok=%v", st, ok)
	}
	got := r.Counter("spg_scheduler_choice_total", "", "phase", "bp", "strategy", "sparse").Value()
	if got != 1 {
		t.Fatalf("choice counter = %v, want 1", got)
	}
	// Arena gauges render without error and include the bound stats.
	c.Put(c.Get(128))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "spg_arena_gets_total 1") {
		t.Fatalf("arena gauge missing:\n%s", b.String())
	}
}

func TestRecordEpochSeries(t *testing.T) {
	r := NewRegistry()
	r.RecordEpoch(nn.EpochStats{Epoch: 1, Images: 100, ImagesPerSec: 50, Accuracy: 0.5, ConvGoodputGFlops: 2,
		ConvSparsity: map[string]float64{"conv0": 0.75, "conv1": 0.25}})
	r.RecordEpoch(nn.EpochStats{Epoch: 2, Images: 100, ImagesPerSec: 60, Accuracy: 0.6, ConvGoodputGFlops: 3})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"spg_epoch 2",
		"spg_images_total 200",
		`spg_conv_goodput_gflops_series{epoch="1"} 2`,
		`spg_conv_goodput_gflops_series{epoch="2"} 3`,
		"spg_images_per_sec 60",
		`spg_eo_sparsity_series{epoch="1"} 0.5`,
		"spg_eo_sparsity 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestServeEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get(s.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "hits_total 1") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	hz, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hz.StatusCode)
	}
	pp, err := http.Get("http://" + s.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", pp.StatusCode)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("n_total", "").Inc()
				r.ObserveSpan("a/b", 0.001)
				r.Gauge("g", "").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total", "").Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
	if st, _ := r.Span("a/b"); st.Calls != 4000 {
		t.Fatalf("span calls = %d, want 4000", st.Calls)
	}
}
