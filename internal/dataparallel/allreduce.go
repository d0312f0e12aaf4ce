package dataparallel

import (
	"fmt"
	"math/bits"
	"sync"

	"spgcnn/internal/sparse"
)

// Method selects the reduction schedule of the parameter sync.
type Method string

const (
	// MethodFlat is the historical fully-serial mean: one pass per replica
	// into a float64 scratch vector, then one write-back pass per replica.
	// It is the baseline every other schedule is measured against.
	MethodFlat Method = "flat"
	// MethodRing is the parameter-chunked ring schedule (reduce-scatter +
	// allgather): the element space is cut into cache-sized chunks and N
	// worker goroutines — one per replica — each own an interleaved chunk
	// stream. Within a chunk the float64 accumulator is register/L1
	// resident and replicas are summed in replica-index order, which makes
	// the dense ring mean bit-identical to the flat mean while touching
	// each element exactly once per replica (the flat path re-streams its
	// full-length scratch on every pass). On multicore hosts the chunk
	// streams additionally run in parallel.
	MethodRing Method = "ring"
	// MethodTree is the hierarchical schedule: within each chunk, replica
	// vectors combine pairwise over ceil(log2 N) rounds (replica r absorbs
	// replica r+stride), then the root's pairwise sum is averaged and
	// broadcast. Pairwise accumulation has O(log N) float32 rounding depth
	// — better than the historical serial float32 sum — but is not
	// bit-identical to the flat/ring replica-order float64 sum.
	MethodTree Method = "tree"
	// MethodAuto ranks flat/ring/tree × dense/sparse with the
	// machine.Cluster cost model per (params, replicas, delta density) and
	// deploys the winner, re-ranking as the measured density moves —
	// mirroring how internal/plan picks conv engines per sparsity band.
	MethodAuto Method = "auto"
)

// ParseMethod validates a -allreduce flag value.
func ParseMethod(s string) (Method, error) {
	switch Method(s) {
	case "", MethodFlat:
		return MethodFlat, nil
	case MethodRing, MethodTree, MethodAuto:
		return Method(s), nil
	}
	return "", fmt.Errorf("dataparallel: unknown allreduce method %q (want flat, ring, tree or auto)", s)
}

// Sparse-exchange modes (Config.SparseSync).
const (
	// SparseOff never maintains delta state: the dense path, zero overhead.
	SparseOff = "off"
	// SparseAuto ships CT-CSR deltas when their density is at or below
	// SparseDensityBoundary and falls back to the dense schedule above it.
	SparseAuto = "auto"
	// SparseForce always ships deltas (testing and benchmarking).
	SparseForce = "force"
)

// SparseDensityBoundary is the delta density above which the sparse
// exchange falls back to the dense schedule — the Fig. 1-style band
// boundary (density 0.25 = the 0.75 sparsity crossover internal/plan keys
// its sparse-engine band on). The machine.Cluster time model puts its own
// dense/sparse crossover below this at small replica counts; the band
// boundary is the conservative structural gate.
const SparseDensityBoundary = 0.25

// ParseSparseMode validates a -sparse-sync flag value.
func ParseSparseMode(s string) (string, error) {
	switch s {
	case "", SparseOff:
		return SparseOff, nil
	case SparseAuto, SparseForce:
		return s, nil
	}
	return "", fmt.Errorf("dataparallel: unknown sparse-sync mode %q (want off, auto or force)", s)
}

// reduceChunkElems is the reduce-scatter chunk size in elements: 4096
// floats (16 KiB of operand + 32 KiB of float64 accumulator) keeps the
// working set of one chunk L1/L2-resident, which is where the ring
// schedule's single-pass win over the flat scratch vector comes from.
const reduceChunkElems = 4096

// exchangeTileWidth is the CT-CSR column-tile width of encoded deltas.
// It must stay <= 64 so one uint64 can mask a tile's touched columns
// during the sparse reduce.
const exchangeTileWidth = 64

// chunkRef addresses one contiguous element range of one parameter.
type chunkRef struct {
	param, lo, hi int
}

// SyncInfo describes one completed sync round.
type SyncInfo struct {
	// Method is the deployed schedule ("flat", "ring", "tree").
	Method Method
	// Sparse reports whether CT-CSR deltas were exchanged (false = dense).
	Sparse bool
	// Density is the measured gradient-delta density (-1 when the round
	// never computed deltas, i.e. SparseOff).
	Density float64
	// WireBytes is the traffic this round would put on a scale-out
	// interconnect: dense schedules ship every parameter, the sparse
	// exchange ships only encoded non-zeros (8 bytes each: value + index).
	// On one shared-memory host this is the modeled network cost, not a
	// measured local quantity.
	WireBytes int64
}

// Exchange is the reduction subsystem: it averages the replicas' parameter
// views in place under a selectable schedule, optionally shipping CT-CSR
// compressed parameter deltas instead of dense values. All scratch (chunk
// accumulators, delta buffers, CT-CSR skeletons) is allocated once and
// reused every round.
type Exchange struct {
	method Method
	sparse string

	views  [][][]float32 // replica -> param -> data (aliases live weights)
	chunks []chunkRef
	elems  int64 // total elements across params

	flatAcc []float64   // flat path: scratch sized to the largest param
	workAcc [][]float64 // per-worker chunk accumulators

	// Sparse-exchange state (nil until first needed).
	base   [][]float32       // param -> global snapshot after last sync
	delta  [][][]float32     // replica -> param -> persistent delta buffer
	encs   [][]*sparse.CTCSR // replica -> param -> reusable encoding
	nnz    []int64           // per-replica non-zero count of the last delta pass
	ranker func(elems, replicas int, density float64) (Method, bool)

	lastDensity float64
}

// NewExchange builds the reduction subsystem for the given parameter views
// (views[r][j] aliases replica r's parameter j). The ranker, when non-nil,
// resolves MethodAuto per round; rounds before the first density
// measurement rank at density 1.
func NewExchange(method Method, sparseMode string, views [][][]float32,
	ranker func(elems, replicas int, density float64) (Method, bool)) *Exchange {
	e := &Exchange{
		method:      method,
		sparse:      sparseMode,
		views:       views,
		ranker:      ranker,
		lastDensity: 1,
	}
	if e.method == "" {
		e.method = MethodFlat
	}
	if e.sparse == "" {
		e.sparse = SparseOff
	}
	maxLen := 0
	if len(views) > 0 {
		for j, v := range views[0] {
			l := len(v)
			if l > maxLen {
				maxLen = l
			}
			e.elems += int64(l)
			for lo := 0; lo < l; lo += reduceChunkElems {
				hi := lo + reduceChunkElems
				if hi > l {
					hi = l
				}
				e.chunks = append(e.chunks, chunkRef{param: j, lo: lo, hi: hi})
			}
		}
	}
	e.flatAcc = make([]float64, maxLen)
	e.workAcc = make([][]float64, len(views))
	for w := range e.workAcc {
		e.workAcc[w] = make([]float64, reduceChunkElems)
	}
	if e.sparse != SparseOff && len(views) >= 2 {
		// Snapshot the base now, while the replicas are still aligned —
		// deltas then measure true per-replica divergence. (The reduce is
		// correct for any base: mean = base + avg(view - base); only the
		// density measurement cares.)
		e.ensureSparseState()
	}
	return e
}

// Replicas returns the replica count of the views.
func (e *Exchange) Replicas() int { return len(e.views) }

// Sync averages the replica views in place and returns what happened.
func (e *Exchange) Sync() SyncInfo {
	n := len(e.views)
	if n < 2 {
		return SyncInfo{Method: e.method, Density: -1}
	}
	method := e.method
	sparseWanted := false
	density := -1.0
	if e.sparse != SparseOff {
		e.ensureSparseState()
		density = e.deltaPass()
		e.lastDensity = density
		sparseWanted = e.sparse == SparseForce || density <= SparseDensityBoundary
	}
	if method == MethodAuto {
		method, sparseWanted = e.rank(density, sparseWanted)
	}
	info := SyncInfo{Method: method, Density: density}
	if sparseWanted && e.sparse != SparseOff {
		info.Sparse = true
		info.WireBytes = e.sparseReduce()
		return info
	}
	switch method {
	case MethodRing:
		e.ringReduce()
		info.WireBytes = 2 * int64(n-1) * e.elems * 4
	case MethodTree:
		e.treeReduce()
		info.WireBytes = 2 * int64(n-1) * e.elems * 4
	default:
		info.Method = MethodFlat
		e.flatReduce()
		info.WireBytes = 2 * int64(n) * e.elems * 4
	}
	if e.sparse != SparseOff {
		// The dense round moved every replica to the new mean; refresh the
		// snapshot so the next delta pass diffs against it.
		for j, b := range e.base {
			copy(b, e.views[0][j])
		}
	}
	return info
}

// rank resolves MethodAuto: the cost-model ranker when one is wired,
// otherwise a structural default (ring for the dense exchange; the sparse
// verdict from the density gate stands).
func (e *Exchange) rank(density float64, sparseOK bool) (Method, bool) {
	d := density
	if d < 0 {
		d = e.lastDensity
	}
	if e.ranker != nil {
		m, sp := e.ranker(int(e.elems), len(e.views), d)
		if m == MethodAuto || m == "" {
			m = MethodRing
		}
		// The model can only pick sparse when this round has deltas.
		return m, sp && sparseOK && e.sparse != SparseOff
	}
	return MethodRing, sparseOK
}

// flatReduce is the historical serial schedule, drift-fixed: one pass per
// replica accumulates into a float64 scratch vector (the float32
// sum-into-params[0] of the original implementation lost low-order bits by
// 64 replicas), then one pass per replica writes the mean back.
func (e *Exchange) flatReduce() {
	n := len(e.views)
	inv := 1 / float64(n)
	for j := range e.views[0] {
		l := len(e.views[0][j])
		acc := e.flatAcc[:l]
		for i := range acc {
			acc[i] = 0
		}
		for r := 0; r < n; r++ {
			src := e.views[r][j]
			for i, v := range src {
				acc[i] += float64(v)
			}
		}
		for r := 0; r < n; r++ {
			dst := e.views[r][j]
			for i := range dst {
				dst[i] = float32(acc[i] * inv)
			}
		}
	}
}

// ringReduce runs the parameter-chunked ring schedule: worker goroutine w
// (one per replica) owns the chunk stream c ≡ w (mod N); for each chunk it
// reduce-scatters (sums replicas 0..N-1 in index order into its resident
// float64 accumulator) and allgathers (writes the mean back to every
// replica). Identical element-level operation order to flatReduce keeps
// the result bit-identical; the locality of the chunk accumulator — and,
// with spare cores, the parallel streams — is where the time goes down.
func (e *Exchange) ringReduce() {
	n := len(e.views)
	inv := 1 / float64(n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acc := e.workAcc[w]
			for c := w; c < len(e.chunks); c += n {
				ch := e.chunks[c]
				a := acc[:ch.hi-ch.lo]
				src := e.views[0][ch.param][ch.lo:ch.hi]
				for i, v := range src {
					a[i] = float64(v)
				}
				for r := 1; r < n; r++ {
					src := e.views[r][ch.param][ch.lo:ch.hi]
					for i, v := range src {
						a[i] += float64(v)
					}
				}
				for r := 0; r < n; r++ {
					dst := e.views[r][ch.param][ch.lo:ch.hi]
					for i := range dst {
						dst[i] = float32(a[i] * inv)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// treeReduce runs the hierarchical schedule chunk-wise: within a chunk,
// rounds of pairwise float32 adds (replica r absorbs r+stride) leave the
// sum at replica 0, whose mean is then broadcast. The whole tree for one
// chunk runs while the chunk is cache-hot.
func (e *Exchange) treeReduce() {
	n := len(e.views)
	inv := float32(1) / float32(n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < len(e.chunks); c += n {
				ch := e.chunks[c]
				for stride := 1; stride < n; stride *= 2 {
					for r := 0; r+stride < n; r += 2 * stride {
						dst := e.views[r][ch.param][ch.lo:ch.hi]
						src := e.views[r+stride][ch.param][ch.lo:ch.hi]
						for i, v := range src {
							dst[i] += v
						}
					}
				}
				root := e.views[0][ch.param][ch.lo:ch.hi]
				for i := range root {
					root[i] *= inv
				}
				for r := 1; r < n; r++ {
					copy(e.views[r][ch.param][ch.lo:ch.hi], root)
				}
			}
		}(w)
	}
	wg.Wait()
}

// ensureSparseState lazily allocates the delta-exchange state. The base
// snapshot starts from replica 0, which is exact before the first sync
// (replicas start aligned) and is kept current by every sync thereafter.
func (e *Exchange) ensureSparseState() {
	if e.base != nil {
		return
	}
	n := len(e.views)
	e.base = make([][]float32, len(e.views[0]))
	for j, v := range e.views[0] {
		e.base[j] = append([]float32(nil), v...)
	}
	e.delta = make([][][]float32, n)
	e.encs = make([][]*sparse.CTCSR, n)
	e.nnz = make([]int64, n)
	for r := 0; r < n; r++ {
		e.delta[r] = make([][]float32, len(e.views[r]))
		e.encs[r] = make([]*sparse.CTCSR, len(e.views[r]))
		for j, v := range e.views[r] {
			e.delta[r][j] = make([]float32, len(v))
			e.encs[r][j] = &sparse.CTCSR{}
		}
	}
}

// deltaPass computes every replica's parameter delta since the last sync
// into its persistent buffers (one worker goroutine per replica — the
// "replicas prepare their shipment" stage) and returns the overall delta
// density.
func (e *Exchange) deltaPass() float64 {
	n := len(e.views)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var nnz int64
			for j, cur := range e.views[r] {
				base := e.base[j]
				d := e.delta[r][j]
				for i, v := range cur {
					dv := v - base[i]
					d[i] = dv
					if dv != 0 {
						nnz++
					}
				}
			}
			e.nnz[r] = nnz
		}(r)
	}
	wg.Wait()
	var total int64
	for _, c := range e.nnz {
		total += c
	}
	if e.elems == 0 {
		return 0
	}
	return float64(total) / float64(int64(n)*e.elems)
}

// sparseReduce ships the deltas: each replica's worker re-encodes its
// delta buffers as CT-CSR (FromDenseCTInto reuses the tile skeletons, so
// steady state allocates nothing), then tile streams accumulate the
// replicas' non-zeros in replica-index order into a 64-wide float64
// accumulator and write the new mean back only at touched positions —
// everywhere else base already equals the mean exactly. Returns the
// modeled wire bytes: every encoded non-zero upstream plus the touched
// union broadcast to the other N-1 replicas.
func (e *Exchange) sparseReduce() int64 {
	n := len(e.views)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j, d := range e.delta[r] {
				sparse.FromDenseCTInto(e.encs[r][j], d, 1, len(d), exchangeTileWidth)
			}
		}(r)
	}
	wg.Wait()

	inv := 1 / float64(n)
	var unionNNZ int64
	var unionMu sync.Mutex
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var acc [exchangeTileWidth]float64
			var localUnion int64
			for j := range e.views[0] {
				tiles := len(e.encs[0][j].Tiles)
				for t := w; t < tiles; t += n {
					var mask uint64
					for r := 0; r < n; r++ {
						tile := e.encs[r][j].Tiles[t]
						for p := tile.RowPtr[0]; p < tile.RowPtr[1]; p++ {
							col := tile.ColIdx[p]
							acc[col] += float64(tile.Values[p])
							mask |= 1 << uint(col)
						}
					}
					if mask == 0 {
						continue
					}
					base := e.base[j]
					colBase := t * exchangeTileWidth
					for m := mask; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						i := colBase + b
						mean := base[i] + float32(acc[b]*inv)
						base[i] = mean
						for r := 0; r < n; r++ {
							e.views[r][j][i] = mean
						}
						acc[b] = 0
					}
					localUnion += int64(bits.OnesCount64(mask))
				}
			}
			unionMu.Lock()
			unionNNZ += localUnion
			unionMu.Unlock()
		}(w)
	}
	wg.Wait()

	var shipped int64
	for _, c := range e.nnz {
		shipped += c
	}
	return shipped*8 + unionNNZ*8*int64(n-1)
}
