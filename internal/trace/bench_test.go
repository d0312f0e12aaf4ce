package trace

import (
	"testing"
	"time"
)

// BenchmarkEmitRing measures the per-event cost of the flight-recorder
// path — the number the <5% step-time overhead budget rests on.
func BenchmarkEmitRing(b *testing.B) {
	r := New(Options{Mode: Ring})
	e := r.Emitter(0, 0)
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SpanDetail("layer", "layer/conv0/fp/stencil", "", 0, start, time.Millisecond)
	}
}

// BenchmarkEmitRingParallel exercises shard contention with many
// goroutines emitting at once (each gets its own emitter, as replicas do).
func BenchmarkEmitRingParallel(b *testing.B) {
	r := New(Options{Mode: Ring})
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		e := r.Emitter(0, 0)
		for pb.Next() {
			e.SpanDetail("layer", "layer/conv0/fp/stencil", "", 0, start, time.Millisecond)
		}
	})
}

// BenchmarkEmitDisabled pins the nil-emitter fast path: tracing off must
// cost nothing at the call sites that stay wired in.
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	e := r.Emitter(0, 0)
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SpanDetail("layer", "layer/conv0/fp/stencil", "", 0, start, time.Millisecond)
	}
}
