// spg-doctor is the one report tool. It reads either file the system
// writes for an operator and picks the kind from the content:
//
//   - an execution trace capture (spg-train -trace): overall capture
//     accounting, the top time-consuming spans, per-replica
//     straggler/barrier attribution for data-parallel runs, and the
//     per-layer goodput-waste split of Eq. 9 (dense flops vs useful flops,
//     and how much of the gap the deployed BP strategy actually burned);
//   - a drift observatory report (spg-train -drift-report / spg-serve
//     -drift-report): overall model-vs-measured agreement, the
//     per-Fig.1-region rollup, per-series EWMA state and the drift events
//     that fired.
//
// -check validates either kind and exits. -top and -json shape a capture's
// summary; -max-drifts and -min-agreement gate a report, which makes
// spg-doctor the CI gate for the drift pipeline. A flag given for the other
// kind is an error.
//
// Usage:
//
//	spg-doctor trace.json
//	spg-doctor -top 5 trace.json
//	spg-doctor -json trace.json     # machine-readable summary
//	spg-doctor -check trace.json    # validate only
//	spg-doctor results/drift_report.json
//	spg-doctor -check -max-drifts 0 results/drift_report.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"spgcnn/internal/obs"
	"spgcnn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "spg-doctor: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spg-doctor", flag.ContinueOnError)
	check := fs.Bool("check", false, "validate the file (and a report's gates) and exit without rendering")
	top := fs.Int("top", 10, "rows in a capture's top-spans table")
	asJSON := fs.Bool("json", false, "emit a capture's summary as machine-readable JSON")
	maxDrifts := fs.Int("max-drifts", -1, "fail when a report carries more than this many drift events (-1 = no gate)")
	minAgreement := fs.Float64("min-agreement", 0, "fail when a report's overall predicted/measured agreement falls below this (0 = no gate; absolute agreement is host-dependent, gate loosely)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spg-doctor [-check] [-top N] [-json] [-max-drifts N] [-min-agreement R] <trace.json | drift_report.json>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	capture := isCapture(data)
	kind, foreign := "trace capture", map[string]bool{"max-drifts": true, "min-agreement": true}
	if !capture {
		kind, foreign = "drift report", map[string]bool{"top": true, "json": true}
	}
	fs.Visit(func(f *flag.Flag) {
		if foreign[f.Name] && err == nil {
			err = fmt.Errorf("-%s does not apply to %s, a %s", f.Name, fs.Arg(0), kind)
		}
	})
	if err != nil {
		return err
	}
	if capture {
		return doctorCapture(stdout, data, *check, *top, *asJSON)
	}
	return doctorReport(stdout, data, *check, *maxDrifts, *minAgreement)
}

// isCapture reports whether data is a JSON object with a traceEvents
// member, the trace-event format spg-train -trace writes. Anything else is
// read as a drift report, whose decoder says what is wrong with it.
func isCapture(data []byte) bool {
	var members map[string]json.RawMessage
	if json.Unmarshal(data, &members) != nil {
		return false
	}
	_, ok := members["traceEvents"]
	return ok
}

func doctorReport(w io.Writer, data []byte, check bool, maxDrifts int, minAgreement float64) error {
	rep, err := obs.ReadReport(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if maxDrifts >= 0 && rep.TotalDrifts() > maxDrifts {
		return fmt.Errorf("%d drift events exceed the -max-drifts %d gate", rep.TotalDrifts(), maxDrifts)
	}
	if minAgreement > 0 && rep.Agreement() < minAgreement {
		return fmt.Errorf("overall agreement %.3f below the -min-agreement %.3f gate", rep.Agreement(), minAgreement)
	}
	if check {
		fmt.Fprintf(w, "drift report OK: schema %d, %d series, %d drift events, agreement %.3f\n",
			rep.Schema, len(rep.Rows), rep.TotalDrifts(), rep.Agreement())
		return nil
	}
	rep.Render(w)
	return nil
}

func doctorCapture(w io.Writer, data []byte, check bool, top int, asJSON bool) error {
	c, err := trace.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := trace.Validate(c); err != nil {
		return err
	}
	if check {
		fmt.Fprintf(w, "trace OK: %d events, %d layers, mode %s\n", len(c.Events), len(c.Layers), c.Mode)
		return nil
	}
	s := summarize(c, top)
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	s.render(w)
	return nil
}

// summary is a capture's whole report, computed once: the text rendering
// and -json both read it. Field order is fixed by the declarations and no
// map is marshaled, so the JSON is byte-deterministic for a given capture.
// Bump Schema on any breaking field change.
type summary struct {
	Schema     int                    `json:"schema"`
	Mode       string                 `json:"mode"`
	Events     int                    `json:"events"`
	Layers     int                    `json:"layers"`
	Replicas   int                    `json:"replicas"`
	WallSecs   float64                `json:"wall_seconds"`
	Stats      trace.Stats            `json:"capture_stats"`
	TopSpans   []trace.SpanAgg        `json:"top_spans"`
	Stragglers *trace.StragglerReport `json:"stragglers,omitempty"`
	Waste      *trace.WasteReport     `json:"goodput_waste,omitempty"`
}

func summarize(c trace.Capture, top int) summary {
	replicas := map[int32]bool{}
	var minTs, maxEnd int64
	for i, ev := range c.Events {
		if ev.Replica >= 0 {
			replicas[ev.Replica] = true
		}
		if i == 0 || ev.Ts < minTs {
			minTs = ev.Ts
		}
		if end := ev.Ts + ev.Dur; i == 0 || end > maxEnd {
			maxEnd = end
		}
	}
	s := summary{
		Schema:   1,
		Mode:     c.Mode,
		Events:   len(c.Events),
		Layers:   len(c.Layers),
		Replicas: len(replicas),
		WallSecs: float64(maxEnd-minTs) / 1e9,
		Stats:    c.Stats,
		TopSpans: trace.TopSpans(c.Events, top),
	}
	if rep := trace.Stragglers(c); len(rep.Rows) > 0 {
		s.Stragglers = &rep
	}
	if rep := trace.GoodputWaste(c); len(rep.Rows) > 0 {
		s.Waste = &rep
	}
	return s
}

func (s summary) render(w io.Writer) {
	fmt.Fprintln(w, "trace summary")
	fmt.Fprintf(w, "  events %d  mode %s  emitted %d  overwritten %d  dropped %d\n",
		s.Events, s.Mode, s.Stats.Emitted, s.Stats.Overwritten, s.Stats.Dropped)
	fmt.Fprintf(w, "  replicas %d  wall span %s\n", s.Replicas, dur(s.WallSecs))

	fmt.Fprintf(w, "\ntop spans (by total time)\n")
	if len(s.TopSpans) == 0 {
		fmt.Fprintln(w, "  no complete spans in capture")
	} else {
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  name\tcalls\ttotal\tmean\tmax")
		for _, r := range s.TopSpans {
			fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\n", r.Name, r.Calls, dur(r.Total), dur(r.Mean), dur(r.Max))
		}
		tw.Flush()
	}

	fmt.Fprintf(w, "\nstraggler attribution\n")
	if rep := s.Stragglers; rep == nil {
		fmt.Fprintln(w, "  no per-replica step spans in capture (single-replica run?)")
	} else {
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  replica\tsteps\tmin\tmean\tmax\tbarrier wait\tslowest")
		for _, r := range rep.Rows {
			fmt.Fprintf(tw, "  %d\t%d\t%s\t%s\t%s\t%s\t%d of %d\n",
				r.Replica, r.Steps, dur(r.Min), dur(r.Mean), dur(r.Max),
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

	fmt.Fprintf(w, "\ngoodput-waste attribution (Eq. 9)\n")
	rep := s.Waste
	if rep == nil {
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
	fmt.Fprintf(w, "  total over %d epoch(s): dense %s, useful %s (%.1f%%), wasted %s, burned %s\n",
		rep.Epochs, flops(rep.DenseFlops), flops(rep.UsefulFlops), 100*rep.Goodput,
		flops(rep.WastedFlops), flops(rep.BurnedFlops))
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
