// Package plan is spg-CNN's strategy-selection subsystem: the paper's
// §4.4 measure-and-deploy scheduler promoted to a first-class planner
// with an analytical front end and a persistent, host-keyed plan cache.
//
// A selection request flows through three stages:
//
//  1. Model-first pass — the §3 AIT characterization (ait.Classify's
//     Fig. 1 region plus the internal/machine roofline rates) ranks the
//     candidate strategies and prunes the clearly-dominated ones, so the
//     measured search runs over a shortlist instead of the full set
//     (the analytical-pruning idea of Li et al., PAPERS.md).
//  2. Measured tuning — core.ChooseFP/ChooseBP time the survivors on
//     sample tensors under the caller's execution context, exactly as the
//     paper's scheduler does.
//  3. Plan cache — the verdict is stored under a Key of host fingerprint
//     × conv.Spec × worker count × sparsity band. Later requests with the
//     same key (another layer with the same geometry, another dataparallel
//     replica, another process loading the saved cache) deploy the cached
//     verdict with zero measurement passes. Concurrent first requests are
//     single-flighted: one caller measures, the rest wait and share.
//
// The Planner satisfies core.Planner, so core.AutoConv, nn.Conv, netdef
// network construction and the CLIs all delegate selection here.
package plan

import (
	"sync"
	"sync/atomic"
	"time"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
	"spgcnn/internal/tensor"
	"spgcnn/internal/trace"
)

// DefaultPruneRatio is the model-prune threshold: a modeled candidate is
// excluded from measurement when its predicted rate is below this fraction
// of the best modeled rate. Deliberately conservative — the model exists
// to skip hopeless candidates, not to decide close races.
const DefaultPruneRatio = 0.2

// Options configures a Planner. The zero value is fully usable: this
// host's fingerprint and the paper's candidate sets. The model-first pass
// always runs the paper machine model (machine.Paper) and prunes at
// DefaultPruneRatio; bind a trace emitter with SetTrace.
type Options struct {
	// Host overrides the host fingerprint cache keys carry (zero value:
	// machine.HostInfo() of the running process).
	Host machine.Host
	// FP and BP build the candidate sets per worker count (defaults:
	// core.FPStrategies / core.BPStrategies).
	FP, BP func(workers int) []core.Strategy
}

// Stats are the planner's cumulative counters — the numbers
// metrics.BindPlanner exports.
type Stats struct {
	// Hits counts requests served from the cache with zero measurement.
	Hits uint64
	// Misses counts requests that entered the measurement path.
	Misses uint64
	// Measurements counts measurement passes actually run (a miss whose
	// single-flight leader is another caller does not measure).
	Measurements uint64
	// Pruned counts candidates the model pass excluded from measurement.
	Pruned uint64
	// ModelAgree / ModelDisagree count measurement passes where the
	// model's top-ranked survivor did / did not win the measurement.
	ModelAgree, ModelDisagree uint64
	// Waits counts requests that blocked on another caller's in-flight
	// measurement of the same key.
	Waits uint64
	// Invalidations counts cached verdicts dropped through InvalidateSpec —
	// the drift observatory's re-tune trigger. Each invalidated key turns
	// the next request for it from a free hit into a fresh measurement pass.
	Invalidations uint64
}

// AgreementRate returns ModelAgree / (ModelAgree + ModelDisagree), or 0
// before any measured comparison.
func (s Stats) AgreementRate() float64 {
	n := s.ModelAgree + s.ModelDisagree
	if n == 0 {
		return 0
	}
	return float64(s.ModelAgree) / float64(n)
}

// Planner owns strategy selection end-to-end. Safe for concurrent use;
// one Planner is typically shared by every layer of a network, every
// replica of a data-parallel trainer, and (via Save/Load) every run on
// the same host.
type Planner struct {
	mach     machine.Machine
	hostInfo machine.Host
	host     string
	fp, bp   func(workers int) []core.Strategy

	mu       sync.Mutex
	entries  map[Key]*Entry
	inflight map[Key]*flight
	st       Stats
	tr       *trace.Emitter
}

var _ core.Planner = (*Planner)(nil)

type flight struct{ done chan struct{} }

// New builds a planner.
func New(opts Options) *Planner {
	p := &Planner{
		mach:     machine.Paper(),
		hostInfo: opts.Host,
		fp:       opts.FP,
		bp:       opts.BP,
		entries:  make(map[Key]*Entry),
		inflight: make(map[Key]*flight),
	}
	if p.hostInfo == (machine.Host{}) {
		p.hostInfo = machine.HostInfo()
	}
	p.host = p.hostInfo.Fingerprint()
	if p.fp == nil {
		p.fp = core.FPStrategies
	}
	if p.bp == nil {
		p.bp = core.BPStrategies
	}
	return p
}

// Host returns the fingerprint the planner keys verdicts under.
func (p *Planner) Host() string { return p.host }

// SetTrace binds (or, with nil, unbinds) a trace emitter: planner activity
// then lands on the trace timeline — cache hits and single-flight waits as
// instants, measurement passes as spans carrying the winning strategy. The
// emitter's replica stamp attributes planner events — bind the coordinator
// emitter, since the planner is shared.
func (p *Planner) SetTrace(e *trace.Emitter) {
	p.mu.Lock()
	p.tr = e
	p.mu.Unlock()
}

// Stats returns a snapshot of the planner's counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// InvalidateSpec drops every cached verdict for the spec and phase ("fp",
// "bp", or "" for both) on this planner's host — all sparsity bands, batch
// buckets and worker counts — and returns how many entries were dropped.
// Drift is observed per deployed strategy, not per cache band, so the
// trigger path invalidates the whole (spec, phase) family: whichever band
// the next request lands in, it re-measures. Each dropped verdict is marked
// stale, so every layer that deployed it re-plans on its next call.
func (p *Planner) InvalidateSpec(s conv.Spec, phase string) int {
	s = s.Canon()
	n := 0
	p.mu.Lock()
	for k, e := range p.entries {
		if k.Spec != s || k.Host != p.host {
			continue
		}
		if phase != "" && k.Phase != phase {
			continue
		}
		e.stale.Store(true)
		delete(p.entries, k)
		n++
	}
	p.st.Invalidations += uint64(n)
	tr := p.tr
	p.mu.Unlock()
	if n > 0 {
		tr.Instant("plan", "plan/invalidate", s.String(), float64(n))
	}
	return n
}

// PlanFP implements core.Planner: forward-propagation selection. FP
// activations are dense, but the WEIGHTS may be pruned — the sparse-weight
// engine's rate scales with weight density — so the key's sparsity band
// carries w.Sparsity(). Dense weights band to 0, which keeps keys (and
// saved caches) from before weight-density keying valid.
func (p *Planner) PlanFP(s conv.Spec, c *exec.Ctx, ins []*tensor.Tensor,
	w *tensor.Tensor, opts core.TuneOptions) core.Planned {
	wSparsity := 0.0
	if w != nil {
		wSparsity = w.Sparsity()
	}
	return p.plan("fp", s, wSparsity, opts, c, func(survivors []core.Strategy) core.Selection {
		return core.ChooseFP(survivors, s, c, ins, w, opts)
	})
}

// PlanBP implements core.Planner: back-propagation selection, keyed on
// the sample gradients' sparsity band and on whether the measurement drops
// Eq. 3 (opts.NoInputGrad).
func (p *Planner) PlanBP(s conv.Spec, c *exec.Ctx, eos, ins []*tensor.Tensor,
	w *tensor.Tensor, opts core.TuneOptions) core.Planned {
	return p.plan("bp", s, meanSparsity(eos), opts, c, func(survivors []core.Strategy) core.Selection {
		return core.ChooseBP(survivors, s, c, eos, ins, w, opts)
	})
}

func meanSparsity(eos []*tensor.Tensor) float64 {
	if len(eos) == 0 {
		return 0
	}
	sum := 0.0
	for _, eo := range eos {
		sum += eo.Sparsity()
	}
	return sum / float64(len(eos))
}

// candidates builds the phase's candidate set filtered through the
// engine capability seam: strategies whose engines decline s are pruned
// before modeling or measurement, and when nothing survives the reference
// oracle stands in so every valid spec remains plannable.
func (p *Planner) candidates(phase string, workers int, s conv.Spec) []core.Strategy {
	if phase == "fp" {
		return core.SupportedStrategies(p.fp(workers), s)
	}
	return core.SupportedStrategies(p.bp(workers), s)
}

// plan is the shared request path: cache lookup, single-flight dedup, and
// on a genuine miss the model-prune + measure pipeline.
func (p *Planner) plan(phase string, s conv.Spec, sparsity float64, opts core.TuneOptions, c *exec.Ctx,
	measure func([]core.Strategy) core.Selection) core.Planned {
	s.MustValidate()
	if c == nil {
		c = exec.New(1)
	}
	batch := max(opts.Batch, 0)
	// Both phases band on their driving sparsity: gradient sparsity for BP,
	// weight sparsity for FP (dense weights band to 0).
	band := ait.Band(sparsity)
	// Canon() folds the spelled-out defaults (dilation 1, groups 1) onto
	// the zero values, so generalized-spec keys never alias plain entries
	// written before the fields existed — and plain specs hash unchanged.
	key := Key{Host: p.host, Spec: s.Canon(), Workers: c.Workers(), Phase: phase, Band: band, Batch: batch,
		NoInputGrad: phase == "bp" && opts.NoInputGrad}
	for {
		p.mu.Lock()
		if e := p.entries[key]; e != nil {
			entry := *e
			p.mu.Unlock()
			if pd, ok := p.deploy(entry, c); ok {
				p.mu.Lock()
				p.st.Hits++
				tr := p.tr
				p.mu.Unlock()
				tr.Instant("plan", "plan/"+phase+"/hit", entry.Strategy, entry.Seconds)
				return pd
			}
			// The cached strategy no longer resolves against this
			// planner's candidate set: drop the entry and re-measure.
			p.mu.Lock()
			if p.entries[key] != nil && p.entries[key].Strategy == entry.Strategy {
				delete(p.entries, key)
			}
			p.mu.Unlock()
			continue
		}
		if f := p.inflight[key]; f != nil {
			p.st.Waits++
			tr := p.tr
			p.mu.Unlock()
			tr.Instant("plan", "plan/"+phase+"/wait", "", 0)
			<-f.done
			continue // pick the fresh entry up via the cache path
		}
		f := &flight{done: make(chan struct{})}
		p.inflight[key] = f
		p.st.Misses++
		p.mu.Unlock()
		return p.measureMiss(key, sparsity, f, measure)
	}
}

// measureMiss runs the model-first pass and the measured tuning for one
// key, publishes the verdict, and releases the key's waiters.
func (p *Planner) measureMiss(key Key, sparsity float64, f *flight,
	measure func([]core.Strategy) core.Selection) core.Planned {
	defer func() {
		p.mu.Lock()
		delete(p.inflight, key)
		p.mu.Unlock()
		close(f.done)
	}()

	cands := p.candidates(key.Phase, key.Workers, key.Spec)
	names := make([]string, len(cands))
	for i, st := range cands {
		names[i] = st.Name
	}
	classifySparsity := sparsity
	if key.Phase == "fp" {
		classifySparsity = 0
	}
	scores := ModelRank(p.mach, key.Spec, key.Phase, sparsity, key.Workers, names)
	survivors, prunedNames := prune(cands, scores, recommendedNames(key.Spec, classifySparsity))

	p.mu.Lock()
	tr := p.tr
	p.mu.Unlock()
	measureStart := time.Now()
	sel := measure(survivors)
	winner := sel.Chosen.Strategy().Name
	tr.SpanDetail("plan", "plan/"+key.Phase+"/measure", winner, sel.Best().Seconds,
		measureStart, time.Since(measureStart))

	entry := &Entry{
		Key:      key,
		Strategy: winner,
		Seconds:  sel.Best().Seconds,
		Model:    scores,
		Pruned:   prunedNames,
		stale:    new(atomic.Bool),
	}
	for _, tm := range sel.Timings {
		entry.Timings = append(entry.Timings, EntryTiming{Strategy: tm.Strategy.Name, Seconds: tm.Seconds})
	}

	p.mu.Lock()
	p.entries[key] = entry
	p.st.Measurements++
	p.st.Pruned += uint64(len(prunedNames))
	if top := topModeled(scores); top != "" {
		if top == winner {
			p.st.ModelAgree++
		} else {
			p.st.ModelDisagree++
		}
	}
	p.mu.Unlock()
	return core.Planned{Selection: sel, Stale: entry.stale}
}

// topModeled returns the best-scored modeled, non-pruned candidate.
func topModeled(scores []ModelScore) string {
	for _, sc := range scores { // scores are sorted best-first
		if sc.Modeled && !sc.Pruned {
			return sc.Strategy
		}
	}
	return ""
}

// deploy instantiates a cached verdict under the caller's context with
// zero measurement: the strategy is resolved by name from the candidate
// set, an exec is built, and the deployment is recorded in the context's
// probe (as a choice event, NOT a tune span — warm paths never time).
func (p *Planner) deploy(e Entry, c *exec.Ctx) (core.Planned, bool) {
	cands := p.candidates(e.Phase, c.Workers(), e.Spec)
	st, ok := lookupStrategy(cands, e.Strategy)
	if !ok {
		return core.Planned{}, false
	}
	ex := core.NewExecCtx(st, e.Spec, c)
	sel := core.Selection{Chosen: ex}
	for _, tm := range e.Timings {
		if s2, ok := lookupStrategy(cands, tm.Strategy); ok {
			sel.Timings = append(sel.Timings, core.Timing{Strategy: s2, Seconds: tm.Seconds})
		}
	}
	if len(sel.Timings) == 0 {
		sel.Timings = []core.Timing{{Strategy: st, Seconds: e.Seconds}}
	}
	c.Probe().Record(exec.ChoiceEvent(e.Phase, e.Strategy, e.Seconds))
	return core.Planned{Selection: sel, FromCache: true, Stale: e.stale}, true
}

func lookupStrategy(cands []core.Strategy, name string) (core.Strategy, bool) {
	for _, st := range cands {
		if st.Name == name {
			return st, true
		}
	}
	return core.Strategy{}, false
}
