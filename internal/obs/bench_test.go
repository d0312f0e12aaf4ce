package obs

import (
	"testing"

	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/plan"
)

// benchPrediction returns a span length that folds to EWMA ratio 1.0,
// so the envelope never fires mid-benchmark.
func benchPrediction() float64 {
	s := testSpec()
	rate, ok := plan.ModelRate(machine.Paper(), s, "fp", 0, 2, "parallel-gemm")
	if !ok {
		panic("parallel-gemm not modeled")
	}
	return 4 * float64(s.FlopsFP()) / (rate * 1e9 * 2)
}

// BenchmarkRecord measures the steady-state sink cost for a registered
// series: map lookup, EWMA fold and envelope check under the mutex. This is what every kernel span pays once the
// observatory is attached, so it has to stay far inside the probe
// budget (a conv span is tens of microseconds at minimum).
func BenchmarkRecord(b *testing.B) {
	o := New(Options{Workers: 2})
	o.RegisterLayer("c1", testSpec())
	o.SetBatch(4)
	pred := benchPrediction()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Record(layerEvent("fp", "parallel-gemm", pred, false))
	}
}

// BenchmarkRecordParallel is the same hot path under contention —
// data-parallel replicas share one observatory, so the mutex is the
// scaling question.
func BenchmarkRecordParallel(b *testing.B) {
	o := New(Options{Workers: 2})
	o.RegisterLayer("c1", testSpec())
	o.SetBatch(4)
	pred := benchPrediction()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			o.Record(layerEvent("fp", "parallel-gemm", pred, false))
		}
	})
}

// BenchmarkRecordForeign measures the rejection path: events that are not
// layer spans (kernel, tune and pack spans, choices) must be shed almost for
// free, since they share the probe stream.
func BenchmarkRecordForeign(b *testing.B) {
	o := New(Options{Workers: 2})
	o.RegisterLayer("c1", testSpec())
	ev := exec.Event{Cat: "core", Name: "core/fp/stencil", Seconds: 1e-4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Record(ev)
	}
}
