// Package par provides the small parallel-execution substrate that every
// spg-CNN scheduling strategy is built on: static-chunked parallel-for
// loops and a guided dynamically-chunked variant (ForDynamic) for ragged
// work.
//
// The distinction the paper draws between Parallel-GEMM (one matrix multiply
// partitioned across cores) and GEMM-in-Parallel (many independent
// single-threaded multiplies, one per core) is, at this layer, just two
// different ways of handing work items to For: fine-grained row blocks of a
// single GEMM versus coarse whole-GEMM tasks, respectively.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers returns the degree of parallelism to use when the caller asks
// for "all cores": GOMAXPROCS at call time.
func MaxWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// split returns worker w's contiguous range under a balanced partition of n
// items across workers: chunk sizes are n/workers or n/workers+1, with the
// remainder spread one item each over the leading workers. Unlike ceil
// chunking (chunk = ⌈n/w⌉ for every worker), no chunk is ever more than one
// item larger than another and no worker is left idle — ceil chunking on
// e.g. n = workers+1 gives the leading workers 2 items while the trailing
// half get none, a 2x slowest-chunk imbalance that shows up as barrier wait.
func split(n, workers, w int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// For runs fn(i) for every i in [0, n) using at most workers goroutines.
// Work is divided into contiguous static chunks, mirroring how a BLAS
// library statically partitions GEMM rows across threads: worker w receives
// the w-th contiguous chunk, so data touched by one worker stays contiguous.
//
// workers <= 1 (or n <= 1) executes inline on the calling goroutine with no
// synchronization, so sequential baselines pay no scheduling cost.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		lo, hi := split(n, workers, w)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	// Worker 0's chunk runs on the calling goroutine.
	_, first := split(n, workers, 0)
	for i := 0; i < first; i++ {
		fn(i)
	}
	wg.Wait()
}

// ForChunked runs fn(lo, hi) over disjoint contiguous ranges covering
// [0, n), one range per worker. It is the primitive under Parallel-GEMM:
// the caller decides how to interpret the range (e.g. as rows of an output
// matrix). workers <= 1 calls fn(0, n) inline.
func ForChunked(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		lo, hi := split(n, workers, w)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	// Worker 0's range runs on the calling goroutine.
	_, first := split(n, workers, 0)
	fn(0, first)
	wg.Wait()
}

// ForWorkers runs fn(worker, lo, hi) over disjoint contiguous ranges
// covering [0, n), one per worker, passing each worker's index so the
// callee can use worker-private scratch (kernel instances, gradient
// accumulators). workers <= 1 calls fn(0, 0, n) inline.
func ForWorkers(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		lo, hi := split(n, workers, w)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	// Worker 0 runs on the calling goroutine: one fewer goroutine spawn per
	// call, and the caller does useful work instead of blocking.
	_, first := split(n, workers, 0)
	fn(0, 0, first)
	wg.Wait()
}

// ForDynamic runs fn(lo, hi) over disjoint contiguous ranges covering
// [0, n), with ranges claimed dynamically by whichever worker is free —
// guided self-scheduling rather than one static range per worker. Each
// claim takes half the remaining work divided by the worker count (never
// less than grain items), so chunks start large (low claim overhead, good
// locality) and shrink toward grain as the loop drains, letting fast
// workers absorb the tail of ragged work instead of idling at the barrier
// behind the slowest static chunk.
//
// Use ForDynamic only where chunk boundaries do not affect results: every
// index's output must be written independently (e.g. disjoint rows of a
// GEMM). Reductions whose partial-sum grouping follows the partition (such
// as per-worker gradient accumulators) must keep a static split, or their
// floating-point results change run to run.
//
// workers <= 1 calls fn(0, n) inline.
func ForDynamic(n, workers, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if maxUseful := (n + grain - 1) / grain; workers > maxUseful {
		workers = maxUseful
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			rem := int64(n) - next.Load()
			if rem <= 0 {
				return
			}
			c := rem / int64(2*workers)
			if c < int64(grain) {
				c = int64(grain)
			}
			hi := next.Add(c)
			lo := hi - c
			if lo >= int64(n) {
				return
			}
			if hi > int64(n) {
				hi = int64(n)
			}
			fn(int(lo), int(hi))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run() // worker 0 inline
	wg.Wait()
}
