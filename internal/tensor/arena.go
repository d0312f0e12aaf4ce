package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// Arena is a size-classed free-list pool for kernel scratch memory. Every
// convolution engine acquires its working buffers (unfold matrices, layout
// transforms, accumulator tiles) from an Arena instead of the
// Go allocator, so steady-state training reuses the same hot buffers
// across layers and steps — the memory-traffic discipline §3's AIT
// analysis calls for — and the garbage collector sees almost no churn.
//
// Buffers are binned by power-of-two capacity. The minimum class is
// MinArenaClass elements (one 64-byte cache line of float32), so two
// distinct buffers never share a cache line and every buffer starts at an
// allocator-aligned boundary. An Arena is safe for concurrent use; the
// free lists are guarded by one mutex (acquisitions are per batch call,
// not per sample, so the lock is far off the hot path).
//
// Get returns uninitialized memory: callers must fully overwrite or
// explicitly zero what they read. The enginetest conformance suite runs
// every engine through a shared, deliberately dirtied arena to catch
// violations.
type Arena struct {
	mu       sync.Mutex
	f32      [arenaClasses][][]float32
	headers  []*Tensor // recycled tensor headers for GetTensor/PutTensor
	stats    ArenaStats
	growHook func(bytes int64)
}

// MinArenaClass is the smallest buffer granted, in float32 elements: one
// 64-byte cache line.
const MinArenaClass = 16

// arenaClasses covers capacities up to 2^40 elements — far beyond any
// tensor this system builds.
const arenaClasses = 41

// ArenaStats summarizes an arena's traffic. Misses (fresh allocations)
// are Gets - Hits.
type ArenaStats struct {
	// Gets counts buffer acquisitions.
	Gets int64
	// Hits counts acquisitions served from a free list.
	Hits int64
	// BytesAcquired sums the requested sizes over all Gets.
	BytesAcquired int64
	// Outstanding is the number of buffers currently checked out.
	Outstanding int64
	// Grows counts Gets that missed every free list and allocated fresh
	// memory. A steady-state training loop should stop growing after the
	// first epoch; continued growth is a leak or a shape churn signal.
	Grows int64
	// GrowBytes sums the size-class capacities of those fresh allocations.
	GrowBytes int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// SetGrowHook installs a callback invoked (outside the arena lock) each
// time a Get misses the free lists and allocates fresh memory, with the
// allocation's size-class capacity in bytes. Observability taps use it to
// put arena growth on the training timeline; nil removes the hook.
func (a *Arena) SetGrowHook(fn func(bytes int64)) {
	a.mu.Lock()
	a.growHook = fn
	a.mu.Unlock()
}

// class returns the size class holding buffers of capacity >= n: the
// smallest power of two >= max(n, MinArenaClass).
func class(n int) int {
	if n <= MinArenaClass {
		return bits.Len(uint(MinArenaClass - 1))
	}
	return bits.Len(uint(n - 1))
}

// Get returns a float32 buffer of length n with capacity rounded up to
// the size class. The contents are NOT zeroed.
func (a *Arena) Get(n int) []float32 {
	if n < 0 {
		panic(fmt.Sprintf("tensor: Arena.Get(%d)", n))
	}
	k := class(n)
	a.mu.Lock()
	a.stats.Gets++
	a.stats.BytesAcquired += 4 * int64(n)
	a.stats.Outstanding++
	if l := len(a.f32[k]); l > 0 {
		buf := a.f32[k][l-1]
		a.f32[k][l-1] = nil
		a.f32[k] = a.f32[k][:l-1]
		a.stats.Hits++
		a.mu.Unlock()
		return buf[:n]
	}
	a.stats.Grows++
	a.stats.GrowBytes += 4 << k
	hook := a.growHook
	a.mu.Unlock()
	if hook != nil {
		hook(4 << k)
	}
	return make([]float32, 1<<k)[:n]
}

// Put returns a buffer obtained from Get to the free list. Put accepts
// exactly the slice Get returned (same backing array, cap intact);
// re-sliced sub-ranges must not be returned.
func (a *Arena) Put(buf []float32) {
	c := cap(buf)
	if c < MinArenaClass {
		return
	}
	// Bin by the largest class the capacity fully covers.
	k := bits.Len(uint(c)) - 1
	a.mu.Lock()
	a.f32[k] = append(a.f32[k], buf[:c])
	a.stats.Outstanding--
	a.mu.Unlock()
}

// GetTensor returns a tensor of the given shape whose data comes from the
// arena. The header itself is recycled, so steady-state GetTensor/PutTensor
// cycles do not allocate. The data is NOT zeroed.
func (a *Arena) GetTensor(dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d < 0 {
			// Keep dims out of the message: formatting it would force the
			// variadic slice to escape, costing one heap allocation on
			// every call.
			panic("tensor: Arena.GetTensor negative dimension")
		}
		n *= d
	}
	a.mu.Lock()
	var t *Tensor
	if l := len(a.headers); l > 0 {
		t = a.headers[l-1]
		a.headers[l-1] = nil
		a.headers = a.headers[:l-1]
	}
	a.mu.Unlock()
	if t == nil {
		t = &Tensor{}
	}
	t.Dims = append(t.Dims[:0], dims...)
	t.Data = a.Get(n)
	t.Layout = NCHW // recycled headers may carry a stale layout tag
	return t
}

// PutTensor returns a tensor obtained from GetTensor: its data goes back
// to the free list and its header is recycled. The tensor must not be
// used afterwards.
func (a *Arena) PutTensor(t *Tensor) {
	a.Put(t.Data)
	t.Data = nil
	t.Dims = t.Dims[:0]
	a.mu.Lock()
	a.headers = append(a.headers, t)
	a.mu.Unlock()
}

// Stats returns a snapshot of the arena's traffic counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
