package obs

import (
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/plan"
)

// Retunable is the layer-side half of the re-tune loop: nn.Conv satisfies
// it. Retune drops the scheduler's deployment for a phase, so the next
// batch re-plans.
type Retunable interface {
	Name() string
	Spec() conv.Spec
	Retune(phase string)
}

// Coupler turns drift events into re-tunes. It does two things per event:
//
//  1. Immediately (on the observing goroutine) invalidates every cached
//     verdict for the drifting (spec, phase) in the planner — safe from
//     any goroutine, the planner is mutex-protected — so the next
//     selection request re-measures instead of free-hitting.
//  2. Queues the layer's Retune for Apply, which the TRAINING goroutine
//     calls at a batch boundary: nn.Conv.Retune touches scheduler
//     state that must not race a batch in flight.
//
// Bind it with Observatory Options{OnDrift: coupler.OnDrift}.
type Coupler struct {
	planner *plan.Planner

	mu      sync.Mutex
	layers  map[string][]Retunable
	pending map[streamKey]bool
	applied int
}

// NewCoupler builds a coupler invalidating into pl (nil is allowed: only
// layer re-tunes happen then).
func NewCoupler(pl *plan.Planner) *Coupler {
	return &Coupler{
		planner: pl,
		layers:  make(map[string][]Retunable),
		pending: make(map[streamKey]bool),
	}
}

// Register adds a layer to the re-tune map. Data-parallel replicas share
// layer names; register each replica's layer and a drift on the name
// re-tunes all of them — they share the invalidated verdict, so each must
// drop its latch or it would keep running the stale deployment.
func (c *Coupler) Register(l Retunable) {
	c.mu.Lock()
	c.layers[l.Name()] = append(c.layers[l.Name()], l)
	c.mu.Unlock()
}

// OnDrift is the Observatory callback: planner invalidation now, layer
// re-tune queued for Apply.
func (c *Coupler) OnDrift(ev DriftEvent) {
	if c.planner != nil {
		c.planner.InvalidateSpec(ev.Spec, ev.Phase)
	}
	c.mu.Lock()
	c.pending[streamKey{layer: ev.Layer, phase: ev.Phase}] = true
	c.mu.Unlock()
}

// Pending reports how many (layer, phase) re-tunes are queued.
func (c *Coupler) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Apply executes the queued re-tunes and returns how many layers were
// asked to re-plan. Call from the goroutine that owns training control
// flow, with no batch in flight on any registered layer — a trainer's
// OnStep (nn.Trainer's, or dataparallel.Trainer's for a fleet).
func (c *Coupler) Apply() int {
	c.mu.Lock()
	var work []Retunable
	var phases []string
	for k := range c.pending {
		for _, l := range c.layers[k.layer] {
			work = append(work, l)
			phases = append(phases, k.phase)
		}
		delete(c.pending, k)
	}
	c.mu.Unlock()
	for i, l := range work {
		l.Retune(phases[i])
	}
	c.mu.Lock()
	c.applied += len(work)
	c.mu.Unlock()
	return len(work)
}

// Applied reports how many layer re-tunes Apply has executed in total.
func (c *Coupler) Applied() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}
