// Package serve is spg-CNN's inference serving path: a forward-only model
// replicated across worker goroutines behind a dynamic-batching admission
// queue, exposed over HTTP.
//
// The queue is where the paper's §3 latency/goodput tradeoff becomes a
// serving policy: single-image requests coalesce into batches (flushed on
// size, on a deadline, or at once when no company is due), larger batches
// amortize per-forward overhead and give the planner real batch-parallel
// work, and the padding a ragged batch needs is accounted as wasted flops
// — the serving analogue of Eq. 9's goodput discount. Backpressure is a
// bounded queue: overflow rejects with 503 + Retry-After rather than
// building an unbounded latency tail.
package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrQueueFull rejects a Submit when the queue holds QueueCap requests —
// the backpressure signal the HTTP layer turns into 503 + Retry-After.
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrClosed rejects a Submit after Close. Requests admitted before Close
// are still drained and completed.
var ErrClosed = errors.New("serve: server shutting down")

// queue is the dynamic-batching admission queue. Submitters append
// requests; batch workers call next, which blocks until a batch is ready:
// maxBatch requests are waiting (size trigger), the oldest waiting request
// is maxDelay old (deadline trigger), the admission stream predicts no
// further request before that deadline (arrival trigger), or the queue is
// closed (drain — whatever is pending flushes immediately).
type queue struct {
	maxBatch int
	maxDelay time.Duration
	cap      int

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*request
	closed  bool
	timer   *time.Timer

	// last is the latest admission and gap an EWMA (weight ¼) of the
	// intervals between admissions, -1 until two have been seen. Only a
	// coalescing queue (maxDelay > 0) keeps them.
	last time.Time
	gap  time.Duration
}

func newQueue(maxBatch, capacity int, maxDelay time.Duration) *queue {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if capacity < maxBatch {
		capacity = maxBatch
	}
	q := &queue{maxBatch: maxBatch, maxDelay: maxDelay, cap: capacity, gap: -1}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// submit admits one request, stamping its enqueue time.
func (q *queue) submit(r *request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.pending) >= q.cap {
		return ErrQueueFull
	}
	r.enq = time.Now()
	q.pending = append(q.pending, r)
	if q.maxDelay > 0 {
		if !q.last.IsZero() {
			if g := r.enq.Sub(q.last); q.gap < 0 {
				q.gap = g
			} else {
				q.gap += (g - q.gap) / 4
			}
		}
		q.last = r.enq
	}
	// Wake a batch worker for the first waiter (to cut it or arm the
	// deadline), for a full batch, and for an admission after which no
	// company is due: a worker holding the partial batch open cuts it now.
	if len(q.pending) == 1 || len(q.pending) >= q.maxBatch || q.maxDelay > 0 && !q.companyDue() {
		q.cond.Broadcast()
	}
	return nil
}

// nextInto blocks until a batch is ready and returns it in dst's storage,
// so a worker that passes its previous batch back allocates nothing. ok is
// false only when the queue is closed AND drained: every admitted request
// is part of exactly one returned batch.
func (q *queue) nextInto(dst []*request) (batch []*request, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.pending) > 0 {
			if q.closed || len(q.pending) >= q.maxBatch || q.flushDue() {
				return q.cut(dst), true
			}
			q.armTimer()
		} else if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// flushDue reports whether a partial batch should be cut now: no company
// is due before its deadline, or the oldest pending request has waited
// out the coalescing delay. Called with q.mu held.
func (q *queue) flushDue() bool {
	if q.maxDelay <= 0 {
		return true // greedy: cut whatever accumulated while workers were busy
	}
	return !q.companyDue() || time.Since(q.pending[0].enq) >= q.maxDelay
}

// companyDue reports whether the admission stream predicts another request
// before the oldest pending one's deadline: a gap is known and the latest
// admission plus that gap falls at or before oldest.enq + maxDelay. A lone
// request at a rate far below 1/maxDelay is therefore cut at once instead
// of waiting out the delay for company that is not coming. Called with
// q.mu held and pending non-empty.
func (q *queue) companyDue() bool {
	return q.gap >= 0 && !q.last.Add(q.gap).After(q.pending[0].enq.Add(q.maxDelay))
}

// armTimer (re)arms the flush timer for the oldest pending request's
// deadline. Called with q.mu held; the timer callback only broadcasts, so
// waiters re-evaluate the deadline themselves (a timer that fires a hair
// early just re-arms).
func (q *queue) armTimer() {
	d := q.maxDelay - time.Since(q.pending[0].enq)
	if d < 0 {
		d = 0
	}
	if q.timer == nil {
		q.timer = time.AfterFunc(d, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
		return
	}
	q.timer.Reset(d)
}

// cut moves the oldest min(pending, maxBatch) requests into dst[:0] and
// returns it. Called with q.mu held.
func (q *queue) cut(dst []*request) []*request {
	n := min(len(q.pending), q.maxBatch)
	batch := append(dst[:0], q.pending[:n]...)
	rest := copy(q.pending, q.pending[n:])
	clear(q.pending[rest:])
	q.pending = q.pending[:rest]
	if rest > 0 {
		// More work waiting: another worker may be able to cut right away.
		q.cond.Broadcast()
	}
	return batch
}

// close marks the queue draining: no new admissions, pending requests
// flush to workers immediately.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	if q.timer != nil {
		q.timer.Stop()
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth reports how many requests are waiting (the queue-depth gauge).
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}
