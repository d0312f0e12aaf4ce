package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, n)
			For(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 64, 101} {
			var mu sync.Mutex
			covered := make([]bool, n)
			ForChunked(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					if covered[i] {
						t.Errorf("index %d covered twice", i)
					}
					covered[i] = true
				}
			})
			for i, c := range covered {
				if !c {
					t.Fatalf("workers=%d n=%d: index %d never covered", workers, n, i)
				}
			}
		}
	}
}

// TestForChunkedBalanced pins the q/q+1 partition: chunk sizes may differ
// by at most one and every worker receives work whenever n >= workers. The
// old ceil partition failed both (n = workers+1 handed the leading workers
// two items and left the trailing half idle).
func TestForChunkedBalanced(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 7, 8} {
		for _, n := range []int{2, 3, 5, 7, 9, 64, 97, 101} {
			if n < workers {
				continue
			}
			var mu sync.Mutex
			var sizes []int
			ForChunked(n, workers, func(lo, hi int) {
				mu.Lock()
				sizes = append(sizes, hi-lo)
				mu.Unlock()
			})
			if len(sizes) != workers {
				t.Fatalf("n=%d workers=%d: %d chunks, want %d", n, workers, len(sizes), workers)
			}
			mn, mx := sizes[0], sizes[0]
			for _, s := range sizes {
				if s < mn {
					mn = s
				}
				if s > mx {
					mx = s
				}
			}
			if mn == 0 {
				t.Fatalf("n=%d workers=%d: a worker got an empty chunk (sizes %v)", n, workers, sizes)
			}
			if mx-mn > 1 {
				t.Fatalf("n=%d workers=%d: chunk imbalance %v", n, workers, sizes)
			}
		}
	}
}

func TestForDynamicCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, grain := range []int{1, 4, 100} {
			for _, n := range []int{0, 1, 2, 7, 100, 1000} {
				hits := make([]int32, n)
				ForDynamic(n, workers, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d grain=%d n=%d: index %d visited %d times",
							workers, grain, n, i, h)
					}
				}
			}
		}
	}
}

func TestForDynamicSequentialInline(t *testing.T) {
	calls := 0
	ForDynamic(10, 1, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("sequential ForDynamic got [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential ForDynamic called fn %d times, want 1", calls)
	}
}

// TestForDynamicRespectsGrain checks no claimed chunk is smaller than grain
// except the final partial one at the very end of the range.
func TestForDynamicRespectsGrain(t *testing.T) {
	const n, grain = 1000, 16
	var mu sync.Mutex
	short := 0
	ForDynamic(n, 4, grain, func(lo, hi int) {
		if hi-lo < grain {
			mu.Lock()
			short++
			if hi != n {
				t.Errorf("short chunk [%d,%d) not at the tail", lo, hi)
			}
			mu.Unlock()
		}
	})
	if short > 1 {
		t.Fatalf("%d chunks below grain, want at most the final one", short)
	}
}

// TestForDynamicRaggedWork drives deliberately uneven per-index cost to
// exercise concurrent claiming under contention (run with -race).
func TestForDynamicRaggedWork(t *testing.T) {
	const n = 257
	var sum int64
	ForDynamic(n, 8, 1, func(lo, hi int) {
		local := int64(0)
		for i := lo; i < hi; i++ {
			// Quadratic spin: late indices cost far more than early ones.
			for j := 0; j < i*i%4097; j++ {
				local++
			}
			local = local % 1000003
			atomic.AddInt64(&sum, int64(i))
		}
		_ = local
	})
	if sum != int64(n)*int64(n-1)/2 {
		t.Fatalf("sum = %d, want %d", sum, int64(n)*int64(n-1)/2)
	}
}

func TestForChunkedSequentialInline(t *testing.T) {
	calls := 0
	ForChunked(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("sequential ForChunked got [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential ForChunked called fn %d times, want 1", calls)
	}
}

func TestForProperty(t *testing.T) {
	// Sum over parallel-for equals the closed form for arbitrary n, workers.
	if err := quick.Check(func(n8, w8 uint8) bool {
		n := int(n8)
		w := int(w8%8) + 1
		var sum int64
		For(n, w, func(i int) {
			atomic.AddInt64(&sum, int64(i))
		})
		return sum == int64(n)*int64(n-1)/2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Fatalf("MaxWorkers() = %d", MaxWorkers())
	}
}

func BenchmarkForOverheadTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(8, 4, func(int) {})
	}
}
