// spg-trace summarizes an execution trace captured with spg-train -trace:
// overall capture accounting, the top time-consuming spans, per-replica
// straggler/barrier attribution for data-parallel runs, and the per-layer
// goodput-waste split of Eq. 9 (dense flops vs useful flops, and how much
// of the gap the deployed BP strategy actually burned).
//
// Usage:
//
//	spg-trace trace.json
//	spg-trace -top 5 trace.json
//	spg-trace -check trace.json     # schema-validate only
//	spg-trace -json trace.json      # machine-readable summary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"spgcnn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "spg-trace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spg-trace", flag.ContinueOnError)
	top := fs.Int("top", 10, "rows in the top-spans table")
	check := fs.Bool("check", false, "validate the capture and exit")
	asJSON := fs.Bool("json", false, "emit the summary as machine-readable JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spg-trace [-top N] [-check] [-json] <trace.json>")
	}
	c, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := trace.Validate(c); err != nil {
		return err
	}
	if *check {
		fmt.Fprintf(stdout, "trace OK: %d events, %d layers, mode %s\n",
			len(c.Events), len(c.Layers), c.Mode)
		return nil
	}
	if *asJSON {
		return writeJSONSummary(stdout, c, *top)
	}

	summary(stdout, c)
	topSpans(stdout, c, *top)
	stragglers(stdout, c)
	waste(stdout, c)
	return nil
}

func summary(w io.Writer, c trace.Capture) {
	replicas := map[int32]bool{}
	var minTs, maxEnd int64
	first := true
	for _, ev := range c.Events {
		if ev.Replica >= 0 {
			replicas[ev.Replica] = true
		}
		end := ev.Ts + ev.Dur
		if first || ev.Ts < minTs {
			minTs = ev.Ts
		}
		if first || end > maxEnd {
			maxEnd = end
		}
		first = false
	}
	fmt.Fprintln(w, "trace summary")
	fmt.Fprintf(w, "  events %d  mode %s  emitted %d  overwritten %d  dropped %d\n",
		len(c.Events), c.Mode, c.Stats.Emitted, c.Stats.Overwritten, c.Stats.Dropped)
	fmt.Fprintf(w, "  replicas %d  wall span %s\n", len(replicas), dur(float64(maxEnd-minTs)/1e9))
}

func topSpans(w io.Writer, c trace.Capture, n int) {
	fmt.Fprintf(w, "\ntop spans (by total time)\n")
	rows := trace.TopSpans(c.Events, n)
	if len(rows) == 0 {
		fmt.Fprintln(w, "  no complete spans in capture")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  name\tcalls\ttotal\tmean\tmax")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\n", r.Name, r.Calls, dur(r.Total), dur(r.Mean()), dur(r.Max))
	}
	tw.Flush()
}

func stragglers(w io.Writer, c trace.Capture) {
	fmt.Fprintf(w, "\nstraggler attribution\n")
	rep := trace.Stragglers(c)
	if len(rep.Rows) == 0 {
		fmt.Fprintln(w, "  no per-replica step spans in capture (single-replica run?)")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  replica\tsteps\tmin\tmean\tmax\tbarrier wait\tslowest")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "  %d\t%d\t%s\t%s\t%s\t%s\t%d of %d\n",
			r.Replica, r.Steps, dur(r.Min), dur(r.Mean()), dur(r.Max),
			dur(r.BarrierWait), r.SlowestCount, rep.Steps)
	}
	tw.Flush()
	if rep.SlowestReplica >= 0 {
		fmt.Fprintf(w, "  slowest replica overall: %d\n", rep.SlowestReplica)
	}
	if rep.Syncs > 0 {
		fmt.Fprintf(w, "  syncs %d  all-reduce total %s\n", rep.Syncs, dur(rep.AllReduceSeconds))
	}
}

func waste(w io.Writer, c trace.Capture) {
	fmt.Fprintf(w, "\ngoodput-waste attribution (Eq. 9)\n")
	rep := trace.GoodputWaste(c)
	if len(rep.Rows) == 0 {
		fmt.Fprintln(w, "  no layer flop metadata in capture")
		return
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tfp strategy\tbp strategy\tdense\tuseful\twasted\tburned")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Layer, orDash(r.FPStrategy), orDash(r.BPStrategy),
			flops(r.DenseFlops), flops(r.UsefulFlops), flops(r.WastedFlops), flops(r.BurnedFlops))
	}
	tw.Flush()
	pct := 0.0
	if rep.DenseFlops > 0 {
		pct = 100 * rep.UsefulFlops / rep.DenseFlops
	}
	fmt.Fprintf(w, "  total over %d epoch(s): dense %s, useful %s (%.1f%%), wasted %s, burned %s\n",
		rep.Epochs, flops(rep.DenseFlops), flops(rep.UsefulFlops), pct,
		flops(rep.WastedFlops), flops(rep.BurnedFlops))
}

// jsonSummary is the -json output: the same accounting the text report
// renders, in a stable machine-readable shape for scripts and CI gates.
// Bump Schema on any breaking field change.
type jsonSummary struct {
	Schema     int             `json:"schema"`
	Mode       string          `json:"mode"`
	Events     int             `json:"events"`
	Layers     int             `json:"layers"`
	Replicas   int             `json:"replicas"`
	WallSecs   float64         `json:"wall_seconds"`
	Stats      trace.Stats     `json:"capture_stats"`
	TopSpans   []jsonSpan      `json:"top_spans"`
	Stragglers *jsonStragglers `json:"stragglers,omitempty"`
	Waste      *jsonWaste      `json:"goodput_waste,omitempty"`
}

type jsonSpan struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_seconds"`
	Mean  float64 `json:"mean_seconds"`
	Max   float64 `json:"max_seconds"`
}

type jsonStraggler struct {
	Replica      int     `json:"replica"`
	Steps        int     `json:"steps"`
	MinSecs      float64 `json:"min_seconds"`
	MeanSecs     float64 `json:"mean_seconds"`
	MaxSecs      float64 `json:"max_seconds"`
	BarrierWait  float64 `json:"barrier_wait_seconds"`
	SlowestCount int     `json:"slowest_count"`
}

type jsonStragglers struct {
	Steps          int             `json:"steps"`
	Syncs          int             `json:"syncs"`
	AllReduceSecs  float64         `json:"allreduce_seconds"`
	SlowestReplica int             `json:"slowest_replica"`
	Rows           []jsonStraggler `json:"rows"`
}

type jsonWasteRow struct {
	Layer       string  `json:"layer"`
	FPStrategy  string  `json:"fp_strategy,omitempty"`
	BPStrategy  string  `json:"bp_strategy,omitempty"`
	DenseFlops  float64 `json:"dense_flops"`
	UsefulFlops float64 `json:"useful_flops"`
	WastedFlops float64 `json:"wasted_flops"`
	BurnedFlops float64 `json:"burned_flops"`
}

type jsonWaste struct {
	Epochs      int            `json:"epochs"`
	DenseFlops  float64        `json:"dense_flops"`
	UsefulFlops float64        `json:"useful_flops"`
	Goodput     float64        `json:"goodput_fraction"`
	WastedFlops float64        `json:"wasted_flops"`
	BurnedFlops float64        `json:"burned_flops"`
	Rows        []jsonWasteRow `json:"rows"`
}

// writeJSONSummary renders the -json report. Field order is fixed by the
// struct declarations and maps are never marshaled directly, so the
// output is byte-deterministic for a given capture.
func writeJSONSummary(w io.Writer, c trace.Capture, top int) error {
	replicas := map[int32]bool{}
	var minTs, maxEnd int64
	first := true
	for _, ev := range c.Events {
		if ev.Replica >= 0 {
			replicas[ev.Replica] = true
		}
		if end := ev.Ts + ev.Dur; first || end > maxEnd {
			maxEnd = end
		}
		if first || ev.Ts < minTs {
			minTs = ev.Ts
		}
		first = false
	}
	out := jsonSummary{
		Schema:   1,
		Mode:     c.Mode,
		Events:   len(c.Events),
		Layers:   len(c.Layers),
		Replicas: len(replicas),
		WallSecs: float64(maxEnd-minTs) / 1e9,
		Stats:    c.Stats,
		TopSpans: []jsonSpan{},
	}
	for _, r := range trace.TopSpans(c.Events, top) {
		out.TopSpans = append(out.TopSpans, jsonSpan{
			Name: r.Name, Calls: r.Calls, Total: r.Total, Mean: r.Mean(), Max: r.Max,
		})
	}
	if rep := trace.Stragglers(c); len(rep.Rows) > 0 {
		js := &jsonStragglers{
			Steps: rep.Steps, Syncs: rep.Syncs,
			AllReduceSecs: rep.AllReduceSeconds, SlowestReplica: rep.SlowestReplica,
		}
		for _, r := range rep.Rows {
			js.Rows = append(js.Rows, jsonStraggler{
				Replica: r.Replica, Steps: r.Steps,
				MinSecs: r.Min, MeanSecs: r.Mean(), MaxSecs: r.Max,
				BarrierWait: r.BarrierWait, SlowestCount: r.SlowestCount,
			})
		}
		out.Stragglers = js
	}
	if rep := trace.GoodputWaste(c); len(rep.Rows) > 0 {
		jw := &jsonWaste{
			Epochs:     rep.Epochs,
			DenseFlops: rep.DenseFlops, UsefulFlops: rep.UsefulFlops,
			WastedFlops: rep.WastedFlops, BurnedFlops: rep.BurnedFlops,
		}
		if rep.DenseFlops > 0 {
			jw.Goodput = rep.UsefulFlops / rep.DenseFlops
		}
		for _, r := range rep.Rows {
			jw.Rows = append(jw.Rows, jsonWasteRow{
				Layer: r.Layer, FPStrategy: r.FPStrategy, BPStrategy: r.BPStrategy,
				DenseFlops: r.DenseFlops, UsefulFlops: r.UsefulFlops,
				WastedFlops: r.WastedFlops, BurnedFlops: r.BurnedFlops,
			})
		}
		out.Waste = jw
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// dur renders seconds at millisecond-or-better granularity.
func dur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fus", s*1e6)
	}
}

// flops renders a flop count with an SI suffix.
func flops(f float64) string {
	switch {
	case f >= 1e12:
		return fmt.Sprintf("%.2fTF", f/1e12)
	case f >= 1e9:
		return fmt.Sprintf("%.2fGF", f/1e9)
	case f >= 1e6:
		return fmt.Sprintf("%.2fMF", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.2fKF", f/1e3)
	default:
		return fmt.Sprintf("%.0fF", f)
	}
}
