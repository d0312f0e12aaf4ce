package trace

import (
	"sort"
	"strings"
)

// seconds converts an event duration to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// SpanAgg aggregates every complete event sharing one name. Durations
// are in seconds.
type SpanAgg struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_seconds"`
	Mean  float64 `json:"mean_seconds"`
	Max   float64 `json:"max_seconds"`
}

// TopSpans aggregates complete events by name and returns the n entries
// with the largest total time (all of them when n <= 0), ordered by total
// descending, name ascending on ties.
func TopSpans(events []Event, n int) []SpanAgg {
	byName := map[string]*SpanAgg{}
	for _, ev := range events {
		if ev.Phase != 'X' {
			continue
		}
		a := byName[ev.Name]
		if a == nil {
			a = &SpanAgg{Name: ev.Name}
			byName[ev.Name] = a
		}
		d := seconds(ev.Dur)
		a.Calls++
		a.Total += d
		if d > a.Max {
			a.Max = d
		}
	}
	out := make([]SpanAgg, 0, len(byName))
	for _, a := range byName {
		a.Mean = a.Total / float64(a.Calls)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// StragglerStat is one replica's barrier behavior over the capture.
type StragglerStat struct {
	Replica int `json:"replica"`
	// Steps is the number of per-replica step spans observed.
	Steps int `json:"steps"`
	// Total/Min/Mean/Max summarize the replica's step durations (seconds).
	Total float64 `json:"-"`
	Min   float64 `json:"min_seconds"`
	Mean  float64 `json:"mean_seconds"`
	Max   float64 `json:"max_seconds"`
	// BarrierWait is the cumulative time this replica spent finished at
	// the step barrier waiting for the slowest replica (seconds).
	BarrierWait float64 `json:"barrier_wait_seconds"`
	// SlowestCount is how many steps this replica WAS the slowest — the
	// one every other replica waited on.
	SlowestCount int `json:"slowest_count"`
}

// StragglerReport is the per-replica time-at-barrier attribution of a
// data-parallel capture.
type StragglerReport struct {
	// Steps is the number of synchronized step groups analyzed.
	Steps int `json:"steps"`
	// Syncs / AllReduceSeconds count the parameter-averaging rounds and
	// their total cost.
	Syncs            int     `json:"syncs"`
	AllReduceSeconds float64 `json:"allreduce_seconds"`
	// SlowestReplica is the replica most often slowest (-1 when the
	// capture has no step groups).
	SlowestReplica int             `json:"slowest_replica"`
	Rows           []StragglerStat `json:"rows"`
}

// Stragglers derives barrier attribution from per-replica "step" spans
// (cat "step", grouped by Step stamp) and "allreduce" sync spans: within
// each step group the slowest replica defines the barrier release, every
// other replica's wait is the gap to it, and the slowest replica is
// charged with the stall.
func Stragglers(c Capture) StragglerReport {
	type group struct {
		durs map[int]float64 // replica → step seconds
	}
	groups := map[int64]*group{}
	byReplica := map[int]*StragglerStat{}
	rep := StragglerReport{SlowestReplica: -1}

	for _, ev := range c.Events {
		switch {
		case ev.Cat == "step" && ev.Phase == 'X':
			g := groups[ev.Step]
			if g == nil {
				g = &group{durs: map[int]float64{}}
				groups[ev.Step] = g
			}
			r := int(ev.Replica)
			d := seconds(ev.Dur)
			g.durs[r] += d
			st := byReplica[r]
			if st == nil {
				st = &StragglerStat{Replica: r, Min: d}
				byReplica[r] = st
			}
			st.Steps++
			st.Total += d
			if d < st.Min {
				st.Min = d
			}
			if d > st.Max {
				st.Max = d
			}
		case ev.Cat == "sync" && ev.Phase == 'X' && ev.Name == "allreduce":
			rep.Syncs++
			rep.AllReduceSeconds += seconds(ev.Dur)
		}
	}

	slowestCounts := map[int]int{}
	for _, g := range groups {
		if len(g.durs) < 2 {
			continue // nothing to wait on
		}
		rep.Steps++
		slowest, max := -1, -1.0
		for r, d := range g.durs {
			if d > max || (d == max && r < slowest) {
				slowest, max = r, d
			}
		}
		slowestCounts[slowest]++
		byReplica[slowest].SlowestCount++
		for r, d := range g.durs {
			if r != slowest {
				byReplica[r].BarrierWait += max - d
			}
		}
	}

	for _, st := range byReplica {
		st.Mean = st.Total / float64(st.Steps)
		rep.Rows = append(rep.Rows, *st)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Replica < rep.Rows[j].Replica })
	best := -1
	for r, n := range slowestCounts {
		if n > best || (n == best && r < rep.SlowestReplica) {
			rep.SlowestReplica, best = r, n
		}
	}
	return rep
}

// WasteRow attributes one layer's share of the Eq. 9 dense-vs-useful gap.
type WasteRow struct {
	Layer string `json:"layer"`
	// FPStrategy / BPStrategy are the deployed strategies observed in the
	// capture's layer spans (the one with the most recorded time wins;
	// empty when the capture holds no span for the phase).
	FPStrategy string `json:"fp_strategy,omitempty"`
	BPStrategy string `json:"bp_strategy,omitempty"`
	// FPSeconds / BPSeconds are the layer's recorded phase times.
	FPSeconds float64 `json:"-"`
	BPSeconds float64 `json:"-"`
	// DenseFlops is the layer's dense work over the capture (FP + BP).
	DenseFlops float64 `json:"dense_flops"`
	// UsefulFlops discounts BP by the observed gradient sparsity (Eq. 9).
	UsefulFlops float64 `json:"useful_flops"`
	// WastedFlops is the dense-vs-useful gap: BP flops that multiply
	// zeros when a dense engine executes them.
	WastedFlops float64 `json:"wasted_flops"`
	// BurnedFlops is the wasted work actually executed: equal to
	// WastedFlops under a dense BP strategy, 0 under the sparse kernel
	// (which skips the zeros — the gap is recovered, not burned).
	BurnedFlops float64 `json:"burned_flops"`
}

// WasteReport is the per-layer goodput-waste attribution of a capture.
type WasteReport struct {
	// Epochs is the number of epoch accounting events consumed.
	Epochs int `json:"epochs"`
	// Totals over all rows; Goodput is UsefulFlops / DenseFlops (0 when
	// the capture carries no dense work).
	DenseFlops  float64    `json:"dense_flops"`
	UsefulFlops float64    `json:"useful_flops"`
	Goodput     float64    `json:"goodput_fraction"`
	WastedFlops float64    `json:"wasted_flops"`
	BurnedFlops float64    `json:"burned_flops"`
	Rows        []WasteRow `json:"rows"`
}

// GoodputWaste splits the Eq. 9 dense-vs-useful gap per layer: for every
// epoch event (images processed) and every layer's sparsity sample in
// that epoch, the layer's dense BP flops are split into useful and wasted
// work, and the wasted work is charged as burned when the capture shows a
// dense BP strategy deployed for that layer. Requires the capture's layer
// flop metadata; layers without sparsity samples count as fully useful.
func GoodputWaste(c Capture) WasteReport {
	// images per epoch key (the Step stamp of the epoch event).
	epochImages := map[int64]float64{}
	// layer → epoch key → sparsity.
	sparsity := map[string]map[int64]float64{}
	// layer → phase → strategy → seconds.
	phaseSecs := map[string]map[string]map[string]float64{}

	for _, ev := range c.Events {
		switch {
		case ev.Cat == "epoch" && ev.Phase == 'i':
			epochImages[ev.Step] += ev.Value
		case ev.Cat == "sparsity" && ev.Phase == 'i' && ev.Detail != "":
			m := sparsity[ev.Detail]
			if m == nil {
				m = map[int64]float64{}
				sparsity[ev.Detail] = m
			}
			m[ev.Step] = ev.Value
		case ev.Cat == "layer" && ev.Phase == 'X':
			// "layer/<name>/<phase>/<strategy>"
			parts := strings.Split(ev.Name, "/")
			if len(parts) != 4 {
				continue
			}
			layer, phase, strat := parts[1], parts[2], parts[3]
			pm := phaseSecs[layer]
			if pm == nil {
				pm = map[string]map[string]float64{}
				phaseSecs[layer] = pm
			}
			sm := pm[phase]
			if sm == nil {
				sm = map[string]float64{}
				pm[phase] = sm
			}
			sm[strat] += seconds(ev.Dur)
		}
	}

	rep := WasteReport{Epochs: len(epochImages)}
	for _, l := range c.Layers {
		row := WasteRow{Layer: l.Name}
		row.FPStrategy, row.FPSeconds = dominantStrategy(phaseSecs[l.Name]["fp"])
		row.BPStrategy, row.BPSeconds = dominantStrategy(phaseSecs[l.Name]["bp"])
		for ep, images := range epochImages {
			fp := images * float64(l.FPFlops)
			bp := images * float64(l.BPFlops)
			s := sparsity[l.Name][ep]
			row.DenseFlops += fp + bp
			row.UsefulFlops += fp + bp*(1-s)
			row.WastedFlops += bp * s
		}
		if !strings.HasPrefix(row.BPStrategy, "sparse") {
			row.BurnedFlops = row.WastedFlops
		}
		rep.Rows = append(rep.Rows, row)
		rep.DenseFlops += row.DenseFlops
		rep.UsefulFlops += row.UsefulFlops
		rep.WastedFlops += row.WastedFlops
		rep.BurnedFlops += row.BurnedFlops
	}
	if rep.DenseFlops > 0 {
		rep.Goodput = rep.UsefulFlops / rep.DenseFlops
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.BurnedFlops != b.BurnedFlops {
			return a.BurnedFlops > b.BurnedFlops
		}
		if a.WastedFlops != b.WastedFlops {
			return a.WastedFlops > b.WastedFlops
		}
		return a.Layer < b.Layer
	})
	return rep
}

// dominantStrategy picks the strategy with the most recorded time (name
// order breaks ties) and returns it with the phase's total seconds.
func dominantStrategy(byStrat map[string]float64) (string, float64) {
	best, total := "", 0.0
	bestSecs := -1.0
	names := make([]string, 0, len(byStrat))
	for n := range byStrat {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total += byStrat[n]
		if byStrat[n] > bestSecs {
			best, bestSecs = n, byStrat[n]
		}
	}
	return best, total
}
