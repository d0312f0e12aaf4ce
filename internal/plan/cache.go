package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
)

// SchemaVersion stamps every plan-cache file. Load rejects files written
// under a different schema instead of misreading them.
const SchemaVersion = 1

// Key identifies one cached verdict: where it was measured (host
// fingerprint), what for (geometry, phase), and under which conditions
// (worker count, gradient-sparsity band). Keys are comparable and used
// directly as map keys.
type Key struct {
	Host    string    `json:"host"`
	Spec    conv.Spec `json:"spec"`
	Workers int       `json:"workers"`
	Phase   string    `json:"phase"` // "fp" or "bp"
	Band    int       `json:"band"`  // ait.Band of the gradient sparsity for BP, of the weight sparsity for FP (0 when dense)
	// Batch is the batch-size bucket the verdict was measured for. Strategy
	// ranking shifts with batch size (batch-parallel schedules starve below
	// the worker count; per-call overheads amortize differently), so serving
	// deployments key verdicts per bucket. Zero means unkeyed — every
	// training-path verdict, and every cache file written before batch
	// keying existed, which therefore stays valid under this schema.
	Batch int `json:"batch,omitempty"`
	// NoInputGrad marks a BP verdict measured without Eq. 3, for a layer
	// whose input gradient nobody reads (the network's first). Dropping
	// half the dense work moves the ranking, so the verdict must never
	// serve a same-spec layer deeper in a network; false everywhere else,
	// which keeps every earlier cache file valid.
	NoInputGrad bool `json:"no_input_grad,omitempty"`
}

func (k Key) String() string {
	batch := ""
	if k.Batch > 0 {
		batch = fmt.Sprintf("/batch%d", k.Batch)
	}
	if k.NoInputGrad {
		batch += "/no-ei"
	}
	return fmt.Sprintf("%s/%s/p%d/band%d%s on %s", k.Phase, k.Spec, k.Workers, k.Band, batch, k.Host)
}

// EntryTiming is one measured candidate in a cached verdict.
type EntryTiming struct {
	Strategy string  `json:"strategy"`
	Seconds  float64 `json:"seconds"`
}

// Entry is one cached verdict: the winning strategy, its measured time,
// the full measurement table, and the model pass that preceded it.
type Entry struct {
	Key
	Strategy string        `json:"chosen"`
	Seconds  float64       `json:"seconds"`
	Timings  []EntryTiming `json:"timings,omitempty"`
	Model    []ModelScore  `json:"model,omitempty"`
	Pruned   []string      `json:"pruned,omitempty"`

	// stale flips when InvalidateSpec drops the entry; every layer that
	// deployed the verdict holds it as core.Planned.Stale and re-plans on
	// its next call.
	stale *atomic.Bool
}

// File is the on-disk form of a plan cache.
type File struct {
	Schema  int          `json:"schema"`
	Host    machine.Host `json:"host"`
	Entries []*Entry     `json:"entries"`
}

// Save writes every cached verdict as schema-versioned JSON, in a
// deterministic order so saved caches diff cleanly.
func (p *Planner) Save(w io.Writer) error {
	p.mu.Lock()
	entries := make([]*Entry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Key.String() < entries[j].Key.String()
	})
	f := File{Schema: SchemaVersion, Host: p.hostInfo, Entries: entries}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Load merges a cache written by Save into the planner and returns how
// many entries were adopted. Entries keyed to a different host fingerprint
// are kept (they round-trip through Save) but can never match a lookup on
// this host; entries whose key is malformed are dropped. Verdicts naming
// strategies unknown to this planner are adopted as-is and fall back to a
// fresh measurement at deploy time.
func (p *Planner) Load(r io.Reader) (int, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return 0, fmt.Errorf("plan: decoding cache: %w", err)
	}
	if f.Schema != SchemaVersion {
		return 0, fmt.Errorf("plan: cache schema %d, want %d", f.Schema, SchemaVersion)
	}
	n := 0
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range f.Entries {
		if e == nil || e.Strategy == "" || e.Spec.Validate() != nil ||
			(e.Phase != "fp" && e.Phase != "bp") || e.Workers < 1 ||
			e.Band < 0 || e.Band >= ait.BandCount || e.Batch < 0 {
			continue
		}
		// Fold spelled-out defaults (dilation=1, groups=1) onto the zero
		// values so loaded entries match the canonical keys lookups build.
		e.Spec = e.Spec.Canon()
		e.stale = new(atomic.Bool)
		p.entries[e.Key] = e
		n++
	}
	return n, nil
}

// SaveFile writes the cache to path atomically (exec.WriteFileAtomic).
func (p *Planner) SaveFile(path string) error { return exec.WriteFileAtomic(path, p.Save) }

// LoadFile merges the cache at path. A missing file is not an error — it
// is the cold-start case — and reports zero entries.
func (p *Planner) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return p.Load(f)
}

// Entries reports how many verdicts the planner currently holds.
func (p *Planner) Entries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Lookup returns the cached verdict for a key, if present.
func (p *Planner) Lookup(k Key) (Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[k]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}
