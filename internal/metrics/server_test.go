package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"spgcnn/internal/exec"
	"spgcnn/internal/trace"
)

// TestConcurrentScrapeWhileRecording hammers /metrics and /healthz from
// several goroutines while a training-shaped workload records spans into
// the same registry through both sinks (registry + trace emitter) on a
// shared probe. Run under -race this pins the whole observability
// path — probe fan-out, registry render, trace gauge reads — as
// concurrency-safe.
func TestConcurrentScrapeWhileRecording(t *testing.T) {
	r := NewRegistry()
	ctx := exec.New(2)
	rec := trace.New(trace.Options{Mode: trace.Ring})
	Bind(ctx, r)
	ctx.Probe().AddSink(rec.Emitter(0, 0))
	BindTrace(rec, r)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	// Writer: records spans and choices like a live training loop until
	// the scrapers finish.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec.SetStep(int64(i))
			ctx.Probe().Record(exec.Event{Cat: "layer", Name: "layer/conv0/fp/stencil", Seconds: 0.001})
			ctx.Probe().Record(exec.Event{Cat: "layer", Name: "layer/conv0/bp/sparse", Seconds: 0.002})
			ctx.Probe().Record(exec.ChoiceEvent("bp", "sparse", 0.002))
		}
	}()

	const scrapers, rounds = 4, 25
	errs := make(chan error, scrapers)
	var scrape sync.WaitGroup
	for s := 0; s < scrapers; s++ {
		scrape.Add(1)
		go func() {
			defer scrape.Done()
			for i := 0; i < rounds; i++ {
				body, err := get("/metrics")
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(body, "spg_trace_emitted_total") {
					errs <- fmt.Errorf("scrape %d missing trace gauges", i)
					return
				}
				if body, err = get("/healthz"); err != nil {
					errs <- err
					return
				} else if !strings.Contains(body, "ok") {
					errs <- fmt.Errorf("healthz said %q", body)
					return
				}
			}
		}()
	}
	scrape.Wait()
	close(stop)
	writer.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The final scrape must show the recorder's accounting moved.
	body, err := get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "spg_trace_buffered") ||
		!strings.Contains(body, "spg_trace_buffer_used_ratio") {
		t.Fatalf("trace gauges missing from exposition:\n%s", body)
	}
	if rec.Stats().Emitted == 0 {
		t.Fatal("no trace events recorded during the scrape storm")
	}
}
