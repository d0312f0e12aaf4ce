package dataparallel

import (
	"sync"
	"time"

	"spgcnn/internal/nn"
)

// runAsync schedules the epoch's steps in the bounded-staleness mode:
// replicas run their step streams without a per-step barrier, each allowed
// up to cfg.Staleness steps ahead of the slowest replica. Parameter
// averaging still happens every SyncEvery fleet-wide steps, but instead of
// a hard barrier the sync is "armed" once the slowest replica crosses the
// boundary; replicas park at their next step start and the last active
// replica performs the reduction over whatever the fleet's parameters hold
// — fast replicas contribute up to Staleness extra local steps, which is
// exactly the gradient staleness this mode trades for the removed barrier
// (§6's parameter-synchronization latency discussion). There is no
// straggler mitigation here (New rejects the combination): the staleness
// bound is itself the slack that absorbs stragglers.
func (t *Trainer) runAsync(ds nn.Dataset, order []int, e *epochTally) {
	cfg := t.cfg
	shard := cfg.GlobalBatch / cfg.Replicas
	totalSteps := len(order) / cfg.GlobalBatch

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		done     = make([]int, cfg.Replicas)
		parked   = 0
		finished = 0
		synced   = 0 // fleet-wide step count covered by the last sync
	)
	minDone := func() int {
		m := done[0]
		for _, d := range done[1:] {
			m = min(m, d)
		}
		return m
	}
	maxDone := func() int {
		m := done[0]
		for _, d := range done[1:] {
			m = max(m, d)
		}
		return m
	}
	// doSync runs under mu with every other replica parked or finished —
	// the whole fleet's parameters are quiescent, and holding mu is what
	// keeps them so while OnStep and the reduction run.
	doSync := func() {
		md := minDone()
		e.stalenessMax = max(e.stalenessMax, maxDone()-md)
		t.onStep(int64(t.steps + md))
		t.sync(e)
		synced = md
	}
	syncPending := func() bool {
		return synced+cfg.SyncEvery <= minDone()
	}

	var wg sync.WaitGroup
	wg.Add(cfg.Replicas)
	for w := 0; w < cfg.Replicas; w++ {
		go func(w int) {
			defer wg.Done()
			// Tallies stay goroutine-local until the replica finishes;
			// perRep[w] is this replica's own row.
			local := &epochTally{perRep: e.perRep}
			for s := 0; s < totalSteps; s++ {
				mu.Lock()
				for {
					if syncPending() {
						if parked+finished == cfg.Replicas-1 {
							doSync()
							cond.Broadcast()
							continue
						}
					} else if s < minDone()+cfg.Staleness {
						// Starting step s keeps this replica's completed-step
						// lead at most Staleness ahead of the slowest.
						break
					}
					parked++
					waitStart := time.Now()
					cond.Wait()
					wait := time.Since(waitStart).Seconds()
					parked--
					e.perRep[w].BarrierWait += wait
					t.em(w).Instant("sync", "barrier", "", wait)
				}
				mu.Unlock()

				base := s*cfg.GlobalBatch + w*shard
				t.runStep(ds, w, order[base:base+shard])
				local.observe(w, t.replicas[w], shard)

				mu.Lock()
				done[w]++
				cond.Broadcast()
				mu.Unlock()
			}
			mu.Lock()
			finished++
			if syncPending() && parked+finished == cfg.Replicas {
				doSync()
			}
			cond.Broadcast()
			e.loss += local.loss
			e.correct += local.correct
			e.images += local.images
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	e.steps = totalSteps

	// Final alignment: average whatever local steps ran since the last
	// covered boundary so the epoch ends with replicas in lockstep.
	if synced < totalSteps {
		t.onStep(int64(t.steps + totalSteps))
		t.sync(e)
	}
}
