package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spgcnn/internal/tensor"
)

func mkReq() *request {
	return &request{input: tensor.New(1), done: make(chan result, 1)}
}

// TestQueueSizeTriggeredFlush: maxBatch requests waiting cut immediately,
// without waiting out the deadline.
func TestQueueSizeTriggeredFlush(t *testing.T) {
	q := newQueue(4, 16, time.Hour) // deadline effectively never
	for i := 0; i < 4; i++ {
		if err := q.submit(mkReq()); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan int, 1)
	go func() {
		b, ok := q.next()
		if !ok {
			got <- -1
			return
		}
		got <- len(b)
	}()
	select {
	case n := <-got:
		if n != 4 {
			t.Fatalf("cut %d requests, want 4", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("size-triggered flush did not fire")
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("queue depth %d after cut, want 0", d)
	}
}

// TestQueueDeadlineTriggeredFlush: a partial batch whose arrivals predict
// company flushes once the oldest request has waited out maxDelay, not
// before. A quick burst admits the batch, so the admission gap is far
// below the delay.
func TestQueueDeadlineTriggeredFlush(t *testing.T) {
	const delay = 50 * time.Millisecond
	q := newQueue(8, 16, delay)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := q.submit(mkReq()); err != nil {
			t.Fatal(err)
		}
	}
	batch, ok := q.next()
	elapsed := time.Since(start)
	if !ok || len(batch) != 3 {
		t.Fatalf("next = %d requests, %v; want 3, true", len(batch), ok)
	}
	if elapsed < delay {
		t.Fatalf("flushed after %v, before the %v deadline", elapsed, delay)
	}
	if elapsed > 10*delay {
		t.Fatalf("flushed after %v, deadline was %v", elapsed, delay)
	}
}

// TestQueueLoneRequestFlushesAtOnce: with no admission gap known yet, or
// with gaps far above maxDelay, a lone request is cut well before its
// deadline instead of waiting for company that is not coming.
func TestQueueLoneRequestFlushesAtOnce(t *testing.T) {
	const delay = 100 * time.Millisecond
	q := newQueue(8, 16, delay)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(2 * delay) // the gap: far above the delay
		}
		start := time.Now()
		if err := q.submit(mkReq()); err != nil {
			t.Fatal(err)
		}
		batch, ok := q.next()
		if elapsed := time.Since(start); elapsed > delay/2 {
			t.Fatalf("request %d: cut after %v, want well before the %v deadline", i, elapsed, delay)
		}
		if !ok || len(batch) != 1 {
			t.Fatalf("request %d: next = %d requests, %v; want 1, true", i, len(batch), ok)
		}
	}
}

// TestQueueBurstCoalesces: requests admitted at gaps far below maxDelay
// come out as one batch while a worker waits on the queue: it holds the
// partial batch open until the size trigger cuts it.
func TestQueueBurstCoalesces(t *testing.T) {
	const delay = 200 * time.Millisecond
	const burst = 4
	q := newQueue(burst, 16, delay)
	// A first burst teaches the queue its gap.
	for i := 0; i < burst; i++ {
		if err := q.submit(mkReq()); err != nil {
			t.Fatal(err)
		}
	}
	if b, ok := q.next(); !ok || len(b) != burst {
		t.Fatalf("first burst: next = %d, %v; want %d, true", len(b), ok, burst)
	}

	got := make(chan int, 1)
	go func() {
		b, _ := q.next()
		got <- len(b)
	}()
	for i := 0; i < burst; i++ {
		time.Sleep(time.Millisecond)
		if err := q.submit(mkReq()); err != nil {
			t.Fatal(err)
		}
	}
	if n := <-got; n != burst {
		t.Fatalf("a burst at 1ms gaps under a %v delay came out as a batch of %d, want %d", delay, n, burst)
	}
}

// TestQueueVerdictChangeWakesWorker: a worker holds a partial batch open
// because its quick admissions predict company; an admission after a gap
// long enough that the next one is no longer due before the deadline cuts
// the batch at once, not at the deadline.
func TestQueueVerdictChangeWakesWorker(t *testing.T) {
	const delay = time.Second
	q := newQueue(8, 16, delay)
	q.submit(mkReq())
	q.submit(mkReq())
	got := make(chan int, 1)
	go func() {
		b, _ := q.next()
		got <- len(b)
	}()
	// The gap EWMA becomes ~¼·880ms = 220ms, so the next admission is
	// predicted at ~1.1s, after the 1s deadline.
	time.Sleep(880 * time.Millisecond)
	start := time.Now()
	q.submit(mkReq())
	n := <-got
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Fatalf("batch cut %v after the admission that left no company due, want at once", elapsed)
	}
	if n != 3 {
		t.Fatalf("batch of %d, want 3", n)
	}
}

// TestQueueGreedyFlush: maxDelay zero cuts whatever is pending without
// waiting for a full batch.
func TestQueueGreedyFlush(t *testing.T) {
	q := newQueue(8, 16, 0)
	q.submit(mkReq())
	q.submit(mkReq())
	batch, ok := q.next()
	if !ok || len(batch) != 2 {
		t.Fatalf("greedy next = %d, %v; want 2, true", len(batch), ok)
	}
}

// TestQueueOverflowRejection: the queue admits exactly its capacity and
// rejects the rest with ErrQueueFull; rejected requests are NOT in the
// queue (admitting again after a cut succeeds).
func TestQueueOverflowRejection(t *testing.T) {
	q := newQueue(2, 4, time.Hour)
	for i := 0; i < 4; i++ {
		if err := q.submit(mkReq()); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := q.submit(mkReq()); err != ErrQueueFull {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	if b, ok := q.next(); !ok || len(b) != 2 {
		t.Fatalf("next = %d, %v", len(b), ok)
	}
	if err := q.submit(mkReq()); err != nil {
		t.Fatalf("submit after cut: %v", err)
	}
}

// TestQueueShutdownDrain is the no-lost-no-double-completed pin: many
// concurrent submitters race Close while workers drain. Every admitted
// request must come out of next() exactly once, every rejected submitter
// must have gotten ErrClosed/ErrQueueFull, and the two sets must
// partition the submissions.
func TestQueueShutdownDrain(t *testing.T) {
	const submitters = 8
	const perSubmitter = 200
	q := newQueue(4, 64, time.Millisecond)

	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				err := q.submit(mkReq())
				switch err {
				case nil:
					admitted.Add(1)
				case ErrQueueFull, ErrClosed:
					rejected.Add(1)
				default:
					t.Errorf("submit: unexpected error %v", err)
				}
			}
		}()
	}

	var drained atomic.Int64
	var workers sync.WaitGroup
	for w := 0; w < 3; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				batch, ok := q.next()
				if !ok {
					return
				}
				drained.Add(int64(len(batch)))
			}
		}()
	}

	// Close mid-stream: submitters racing close must either get in (and be
	// drained) or see ErrClosed.
	time.Sleep(5 * time.Millisecond)
	q.close()
	wg.Wait()
	workers.Wait()

	if got, want := drained.Load(), admitted.Load(); got != want {
		t.Fatalf("drained %d requests, admitted %d (lost or duplicated)", got, want)
	}
	if admitted.Load()+rejected.Load() != submitters*perSubmitter {
		t.Fatalf("admitted %d + rejected %d != %d submissions",
			admitted.Load(), rejected.Load(), submitters*perSubmitter)
	}
	if _, ok := q.next(); ok {
		t.Fatal("next after drain returned a batch")
	}
	if err := q.submit(mkReq()); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}
