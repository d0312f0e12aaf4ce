package dataparallel

import "sync"

// reduceChunkElems is the reduce-scatter chunk size in elements: 4096
// floats (16 KiB of operand + 32 KiB of float64 accumulator) keeps the
// working set of one chunk L1/L2-resident, so each element is touched once
// per replica instead of re-streaming a full-length scratch vector.
const reduceChunkElems = 4096

// chunkRef addresses one contiguous element range of one parameter.
type chunkRef struct {
	param, lo, hi int
}

// ring averages the replicas' parameter views in place by the
// parameter-chunked ring schedule (reduce-scatter + allgather): the element
// space is cut into cache-sized chunks and N worker goroutines — one per
// replica — each own an interleaved chunk stream. Within a chunk the float64
// accumulator is register/L1 resident and replicas are summed in
// replica-index order, so the mean is bit-identical to a serial float64
// mean over the whole vector (the drift-free reference the tests pin it
// against). Scratch is allocated once and reused every round.
type ring struct {
	views  [][][]float32 // replica -> param -> data (aliases live weights)
	chunks []chunkRef
	acc    [][]float64 // per-worker chunk accumulators
}

// newRing builds the ring over the given parameter views (views[r][j]
// aliases replica r's parameter j; at least one replica).
func newRing(views [][][]float32) *ring {
	r := &ring{views: views, acc: make([][]float64, len(views))}
	for j, v := range views[0] {
		for lo := 0; lo < len(v); lo += reduceChunkElems {
			r.chunks = append(r.chunks, chunkRef{param: j, lo: lo, hi: min(lo+reduceChunkElems, len(v))})
		}
	}
	for w := range r.acc {
		r.acc[w] = make([]float64, reduceChunkElems)
	}
	return r
}

// reduce runs one averaging round: worker goroutine w owns the chunk stream
// c ≡ w (mod N); for each chunk it reduce-scatters (sums replicas 0..N-1 in
// index order into its resident float64 accumulator) and allgathers (writes
// the mean back to every replica). With spare cores the streams run in
// parallel.
func (r *ring) reduce() {
	n := len(r.views)
	inv := 1 / float64(n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := r.acc[w]
			for c := w; c < len(r.chunks); c += n {
				ch := r.chunks[c]
				a := acc[:ch.hi-ch.lo]
				src := r.views[0][ch.param][ch.lo:ch.hi]
				for i, v := range src {
					a[i] = float64(v)
				}
				for rep := 1; rep < n; rep++ {
					src := r.views[rep][ch.param][ch.lo:ch.hi]
					for i, v := range src {
						a[i] += float64(v)
					}
				}
				for rep := 0; rep < n; rep++ {
					dst := r.views[rep][ch.param][ch.lo:ch.hi]
					for i := range dst {
						dst[i] = float32(a[i] * inv)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
