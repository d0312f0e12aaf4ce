package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/machine"
)

// ReportSchemaVersion stamps every drift report. Readers (spg-doctor)
// reject other versions instead of misreading.
const ReportSchemaVersion = 1

// Row is one (layer, phase) series of the agreement report.
type Row struct {
	Layer    string    `json:"layer"`
	Phase    string    `json:"phase"`
	Strategy string    `json:"strategy"`
	Spec     conv.Spec `json:"spec"`
	// Region is the series' Fig. 1 cell, Band its plan-cache sparsity
	// band, Sparsity the signal both were derived from.
	Region   int     `json:"region"`
	Band     int     `json:"band"`
	Sparsity float64 `json:"sparsity"`
	// Calls counts observed spans; Measured/Predicted are total seconds.
	Calls            int64   `json:"calls"`
	MeasuredSeconds  float64 `json:"measured_seconds"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	// Agreement is predicted/measured: 1.0 = the model nailed it, < 1 =
	// the host runs slower than modeled, > 1 = faster. EWMA is the
	// smoothed instantaneous measured/predicted ratio (the alarm signal;
	// note the inverted sense vs Agreement).
	Agreement float64 `json:"agreement"`
	EWMA      float64 `json:"ewma_ratio"`
	// Drifts counts events fired on this series.
	Drifts int `json:"drifts"`
}

// RegionRow aggregates rows per Fig. 1 region — the design-space-shaped
// agreement table ROADMAP item 1 asks for.
type RegionRow struct {
	Region           int     `json:"region"`
	Series           int     `json:"series"`
	Calls            int64   `json:"calls"`
	MeasuredSeconds  float64 `json:"measured_seconds"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	Agreement        float64 `json:"agreement"`
	Drifts           int     `json:"drifts"`
}

// Report is the schema-versioned drift/agreement artifact
// (results/drift_report.json).
type Report struct {
	Schema  int    `json:"schema"`
	Host    string `json:"host"`
	Workers int    `json:"workers"`
	// Detector configuration, for provenance.
	Threshold float64 `json:"threshold"`
	Window    int     `json:"window"`
	Alpha     float64 `json:"alpha"`
	Warmup    int     `json:"warmup"`

	Rows    []Row        `json:"rows"`
	Regions []RegionRow  `json:"regions"`
	Events  []DriftEvent `json:"events,omitempty"`
}

// Report snapshots the observatory into its artifact form: rows sorted by
// layer then phase, region aggregation attached, events included.
func (o *Observatory) Report() Report {
	o.mu.Lock()
	defer o.mu.Unlock()
	rep := Report{
		Schema:    ReportSchemaVersion,
		Host:      machine.HostInfo().Fingerprint(),
		Workers:   o.opts.Workers,
		Threshold: DefaultThreshold,
		Window:    DefaultWindow,
		Alpha:     DefaultAlpha,
		Warmup:    DefaultWarmup,
		Events:    append([]DriftEvent(nil), o.events...),
	}
	for key, cur := range o.streams {
		st := cur
		if st.obs == 0 && st.prev != nil { // redeployed, not yet observed
			st = st.prev
		}
		if st.rate <= 0 || st.obs == 0 { // unmodeled sentinel or never observed
			continue
		}
		li := o.layers[key.layer]
		classify := st.sparsity
		if key.phase == "fp" {
			classify = 0
		}
		row := Row{
			Layer: key.layer, Phase: key.phase, Strategy: st.strategy,
			Spec:     li.spec,
			Region:   int(ait.Classify(li.spec, classify)),
			Band:     ait.Band(st.sparsity),
			Sparsity: st.sparsity,
			Calls:    st.obs, MeasuredSeconds: st.measured, PredictedSeconds: st.predicted,
			EWMA: st.ewma, Drifts: cur.drifts,
		}
		if st.measured > 0 {
			row.Agreement = st.predicted / st.measured
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].Layer != rep.Rows[j].Layer {
			return rep.Rows[i].Layer < rep.Rows[j].Layer
		}
		return rep.Rows[i].Phase < rep.Rows[j].Phase
	})
	rep.Regions = regionRollup(rep.Rows)
	return rep
}

func regionRollup(rows []Row) []RegionRow {
	agg := make(map[int]*RegionRow)
	for _, r := range rows {
		rr := agg[r.Region]
		if rr == nil {
			rr = &RegionRow{Region: r.Region}
			agg[r.Region] = rr
		}
		rr.Series++
		rr.Calls += r.Calls
		rr.MeasuredSeconds += r.MeasuredSeconds
		rr.PredictedSeconds += r.PredictedSeconds
		rr.Drifts += r.Drifts
	}
	out := make([]RegionRow, 0, len(agg))
	for _, rr := range agg {
		if rr.MeasuredSeconds > 0 {
			rr.Agreement = rr.PredictedSeconds / rr.MeasuredSeconds
		}
		out = append(out, *rr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// WriteJSON writes the report as indented JSON.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report to path atomically (exec.WriteFileAtomic).
func (rep Report) WriteFile(path string) error { return exec.WriteFileAtomic(path, rep.WriteJSON) }

// ReadReport decodes and validates a report.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("obs: decoding report: %w", err)
	}
	if err := rep.Validate(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// Validate checks the report's schema and invariants: known schema
// version, phases in {fp, bp}, regions in Fig. 1's six cells and bands
// within ait.BandCount (rows and events alike), and finite non-negative
// statistics. This is the gate ReadReport and spg-doctor -check hold the
// artifact to.
func (rep Report) Validate() error {
	if rep.Schema != ReportSchemaVersion {
		return fmt.Errorf("obs: report schema %d, want %d", rep.Schema, ReportSchemaVersion)
	}
	if rep.Workers < 1 {
		return fmt.Errorf("obs: report workers %d", rep.Workers)
	}
	finite := func(what string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("obs: report %s = %v", what, v)
		}
		return nil
	}
	for _, r := range rep.Rows {
		if r.Layer == "" || r.Strategy == "" {
			return fmt.Errorf("obs: report row with empty layer/strategy: %+v", r)
		}
		if r.Phase != "fp" && r.Phase != "bp" {
			return fmt.Errorf("obs: report row %s has phase %q", r.Layer, r.Phase)
		}
		if r.Region < int(ait.Region0) || r.Region > int(ait.Region5) {
			return fmt.Errorf("obs: report row %s/%s region %d", r.Layer, r.Phase, r.Region)
		}
		if r.Band < 0 || r.Band >= ait.BandCount {
			return fmt.Errorf("obs: report row %s/%s band %d", r.Layer, r.Phase, r.Band)
		}
		if err := r.Spec.Validate(); err != nil {
			return fmt.Errorf("obs: report row %s/%s spec: %w", r.Layer, r.Phase, err)
		}
		if r.Calls < 1 {
			return fmt.Errorf("obs: report row %s/%s with %d calls", r.Layer, r.Phase, r.Calls)
		}
		for _, c := range []struct {
			what string
			v    float64
		}{
			{"measured_seconds", r.MeasuredSeconds},
			{"predicted_seconds", r.PredictedSeconds},
			{"agreement", r.Agreement},
			{"ewma_ratio", r.EWMA},
		} {
			if err := finite(r.Layer+"/"+r.Phase+" "+c.what, c.v); err != nil {
				return err
			}
		}
		if r.Agreement == 0 {
			return fmt.Errorf("obs: report row %s/%s has zero agreement", r.Layer, r.Phase)
		}
	}
	for _, rr := range rep.Regions {
		if rr.Region < int(ait.Region0) || rr.Region > int(ait.Region5) {
			return fmt.Errorf("obs: report region row %d", rr.Region)
		}
		if err := finite(fmt.Sprintf("region %d agreement", rr.Region), rr.Agreement); err != nil {
			return err
		}
	}
	for _, ev := range rep.Events {
		if ev.Phase != "fp" && ev.Phase != "bp" {
			return fmt.Errorf("obs: event %s has phase %q", ev.Layer, ev.Phase)
		}
		if ev.Region < int(ait.Region0) || ev.Region > int(ait.Region5) || ev.Band < 0 || ev.Band >= ait.BandCount {
			return fmt.Errorf("obs: event %s/%s region %d band %d", ev.Layer, ev.Phase, ev.Region, ev.Band)
		}
	}
	return nil
}

// TotalDrifts sums drift events across rows.
func (rep Report) TotalDrifts() int {
	n := 0
	for _, r := range rep.Rows {
		n += r.Drifts
	}
	return n
}

// Agreement returns the report-wide predicted/measured ratio (0 when
// nothing was measured).
func (rep Report) Agreement() float64 {
	var m, p float64
	for _, r := range rep.Rows {
		m += r.MeasuredSeconds
		p += r.PredictedSeconds
	}
	if m == 0 {
		return 0
	}
	return p / m
}

// Render writes the human-readable agreement report: the per-region
// Fig. 1 table, the per-series table, and the drift-event log. Shared by
// `spg-train -drift` and `spg-doctor`.
func (rep Report) Render(w io.Writer) {
	fmt.Fprintf(w, "drift report: host %s, %d workers, threshold %.2fx window %d alpha %.2f warmup %d\n",
		rep.Host, rep.Workers, rep.Threshold, rep.Window, rep.Alpha, rep.Warmup)
	fmt.Fprintf(w, "overall model-vs-measured agreement: %.3f (predicted/measured), %d drift events\n\n",
		rep.Agreement(), len(rep.Events))

	fmt.Fprintln(w, "agreement per Fig. 1 region:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "region\tseries\tcalls\tmeasured\tpredicted\tagreement\tdrifts")
	for _, rr := range rep.Regions {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4fs\t%.4fs\t%.3f\t%d\n",
			ait.Region(rr.Region), rr.Series, rr.Calls,
			rr.MeasuredSeconds, rr.PredictedSeconds, rr.Agreement, rr.Drifts)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nper-series agreement:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tphase\tstrategy\tregion\tband\tcalls\tagreement\tewma\tdrifts")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%.3f\t%.3f\t%d\n",
			r.Layer, r.Phase, r.Strategy, r.Region, r.Band, r.Calls, r.Agreement, r.EWMA, r.Drifts)
	}
	tw.Flush()

	if len(rep.Events) > 0 {
		fmt.Fprintln(w, "\ndrift events:")
		for _, ev := range rep.Events {
			fmt.Fprintf(w, "  %s\n", ev)
		}
	}
}
