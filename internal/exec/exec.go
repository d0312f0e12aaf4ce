// Package exec defines the batch-first execution context every spg-CNN
// convolution engine runs under. A Ctx bundles the three things that used
// to be implicit per-kernel state:
//
//   - the worker pool (degree of parallelism batch schedulers fan out to),
//   - a size-classed tensor.Arena all scratch memory is acquired from, so
//     hot buffers are reused across kernels, layers and training steps,
//   - a Probe recording one typed Event per timed span or kernel choice —
//     the §4.4 scheduler's timings — and handing each to every attached
//     Sink (the metrics registry, the trace emitter, the drift
//     observatory), which read its fields without parsing its name.
//
// Kernels therefore carry no scratch of their own: they are cheap,
// stateless plans, and one instance can execute concurrently on many
// goroutines as long as each call draws its scratch from the (mutex-
// guarded) arena.
package exec

import "spgcnn/internal/tensor"

// Ctx is one execution context. Construct with New; the zero value is not
// usable. Contexts are safe for concurrent use.
type Ctx struct {
	workers int
	arena   *tensor.Arena
	probe   *Probe
	serial  *Ctx // workers=1 view sharing arena and probe
}

// New builds a context with the given worker count (minimum 1), a fresh
// arena and a fresh probe.
func New(workers int) *Ctx {
	return NewWithArena(workers, tensor.NewArena(), NewProbe())
}

// NewWithArena builds a context over an existing arena and probe — how
// sub-systems share one scratch pool. A nil arena or probe is replaced
// with a fresh one.
func NewWithArena(workers int, a *tensor.Arena, p *Probe) *Ctx {
	if workers < 1 {
		workers = 1
	}
	if a == nil {
		a = tensor.NewArena()
	}
	if p == nil {
		p = NewProbe()
	}
	c := &Ctx{workers: workers, arena: a, probe: p}
	if workers == 1 {
		c.serial = c
	} else {
		c.serial = &Ctx{workers: 1, arena: a, probe: p}
		c.serial.serial = c.serial
	}
	return c
}

// Workers reports the context's degree of parallelism.
func (c *Ctx) Workers() int { return c.workers }

// Arena returns the scratch pool.
func (c *Ctx) Arena() *tensor.Arena { return c.arena }

// Probe returns the instrumentation sink.
func (c *Ctx) Probe() *Probe { return c.probe }

// Serial returns a workers=1 view of this context sharing the same arena
// and probe — what a batch-parallel scheduler hands each worker so the
// per-worker kernels run single-threaded (GEMM-in-Parallel) while still
// drawing from the shared pool.
func (c *Ctx) Serial() *Ctx { return c.serial }

// Get acquires an uninitialized float32 scratch buffer of length n from
// the arena.
func (c *Ctx) Get(n int) []float32 { return c.arena.Get(n) }

// Put releases a buffer obtained from Get.
func (c *Ctx) Put(buf []float32) { c.arena.Put(buf) }

// GetTensor acquires an uninitialized tensor of the given shape from the
// arena.
func (c *Ctx) GetTensor(dims ...int) *tensor.Tensor { return c.arena.GetTensor(dims...) }

// GetTensorLayout acquires an uninitialized tensor of the given shape
// tagged with the given layout — how blocked engines draw NCHW8 scratch
// from the shared arena (the arena itself hands out NCHW-tagged headers).
func (c *Ctx) GetTensorLayout(l tensor.Layout, dims ...int) *tensor.Tensor {
	t := c.arena.GetTensor(dims...)
	t.Layout = l
	return t
}

// PutTensor releases a tensor obtained from GetTensor.
func (c *Ctx) PutTensor(t *tensor.Tensor) { c.arena.PutTensor(t) }

// Measure times fn over reps runs after one warm-up and returns the
// minimum elapsed seconds on the probe's clock — the low-noise estimator
// the scheduler's measure-and-deploy pass (§4.4) uses. Every timed run is
// also recorded in the probe as ev, stamped with its time.
func (c *Ctx) Measure(ev Event, reps int, fn func()) float64 {
	fn() // warm-up: page in scratch, populate arena free lists
	best := 0.0
	for i := 0; i < reps; i++ {
		start := c.probe.Now()
		fn()
		if t := c.probe.RecordSince(ev, start); i == 0 || t < best {
			best = t
		}
	}
	return best
}
