package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"spgcnn/internal/exec"
)

// SortEvents orders events deterministically: ascending start time, then
// replica, worker, cat, name, duration, detail. Two captures of the same
// logical run therefore export byte-identically given identical
// timestamps — the property the golden tests pin.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Replica != b.Replica {
			return a.Replica < b.Replica
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Detail < b.Detail
	})
}

// The JSON shapes follow the Chrome trace-event format (the JSON Object
// Format variant), which Perfetto and chrome://tracing both ingest.
// Replica r maps to pid r+1 so the coordinator/planner row (replica -1)
// gets pid 0; worker w maps to tid w. otherData carries the spg-specific
// sidecar (capture mode, buffer accounting, layer flop metadata) that the
// analyzers need and trace viewers ignore.

type jsonEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope: thread
	Args  map[string]any `json:"args,omitempty"`
}

type jsonSidecar struct {
	Mode        string      `json:"mode"`
	Emitted     uint64      `json:"emitted"`
	Overwritten uint64      `json:"overwritten"`
	Dropped     uint64      `json:"dropped"`
	Layers      []LayerMeta `json:"layers,omitempty"`
}

type jsonFile struct {
	TraceEvents     []jsonEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
	OtherData       jsonSidecar `json:"otherData"`
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// WriteJSON renders the capture as Chrome/Perfetto trace-event JSON.
// Output is deterministic for a given capture: events are pre-sorted,
// metadata rows are sorted by pid/tid, and args maps serialize with
// encoding/json's sorted keys.
func WriteJSON(w io.Writer, c Capture) error {
	evs := append([]Event(nil), c.Events...)
	SortEvents(evs)

	// Name the process/thread rows first: one process per replica, one
	// thread per worker within it.
	type tidKey struct{ pid, tid int }
	pids := map[int]bool{}
	tids := map[tidKey]bool{}
	for _, ev := range evs {
		pids[int(ev.Replica)+1] = true
		tids[tidKey{int(ev.Replica) + 1, int(ev.Worker)}] = true
	}
	var meta []jsonEvent
	for pid := range pids {
		name := "scheduler"
		if pid > 0 {
			name = fmt.Sprintf("replica %d", pid-1)
		}
		meta = append(meta, jsonEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	for k := range tids {
		meta = append(meta, jsonEvent{Name: "thread_name", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", k.tid)}})
	}
	sort.Slice(meta, func(i, j int) bool {
		if meta[i].Pid != meta[j].Pid {
			return meta[i].Pid < meta[j].Pid
		}
		if meta[i].Tid != meta[j].Tid {
			return meta[i].Tid < meta[j].Tid
		}
		return meta[i].Name < meta[j].Name
	})

	out := jsonFile{
		TraceEvents:     meta,
		DisplayTimeUnit: "ms",
		OtherData: jsonSidecar{
			Mode:        c.Mode,
			Emitted:     c.Stats.Emitted,
			Overwritten: c.Stats.Overwritten,
			Dropped:     c.Stats.Dropped,
			Layers:      c.Layers,
		},
	}
	if out.OtherData.Mode == "" {
		out.OtherData.Mode = Full.String()
	}
	for _, ev := range evs {
		je := jsonEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   string(ev.Phase),
			Ts:   micros(ev.Ts),
			Pid:  int(ev.Replica) + 1,
			Tid:  int(ev.Worker),
			Args: map[string]any{"step": ev.Step, "band": ev.Band},
		}
		if ev.Phase == 'X' {
			d := micros(ev.Dur)
			je.Dur = &d
		}
		if ev.Phase == 'i' {
			je.Scope = "t"
		}
		if ev.Detail != "" {
			je.Args["detail"] = ev.Detail
		}
		if ev.Value != 0 {
			je.Args["value"] = ev.Value
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// WriteFile writes the recorder's capture to path atomically
// (exec.WriteFileAtomic).
func (r *Recorder) WriteFile(path string) error {
	c := r.Capture()
	return exec.WriteFileAtomic(path, func(w io.Writer) error { return WriteJSON(w, c) })
}

// maxMicros bounds an event's ts and dur (2^52 µs, about 142 years) so
// both convert to int64 nanoseconds and their sum, the event's end, does
// not overflow.
const maxMicros = 1 << 52

// ReadJSON parses a capture written by WriteJSON (metadata rows are
// skipped; foreign trace-event files load as far as their events carry
// the standard fields). Events come back in deterministic sorted order.
func ReadJSON(rd io.Reader) (Capture, error) {
	var f jsonFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&f); err != nil {
		return Capture{}, fmt.Errorf("trace: decoding capture: %w", err)
	}
	c := Capture{
		Layers: f.OtherData.Layers,
		Mode:   f.OtherData.Mode,
		Stats: Stats{
			Emitted:     f.OtherData.Emitted,
			Overwritten: f.OtherData.Overwritten,
			Dropped:     f.OtherData.Dropped,
		},
	}
	if c.Mode == "" {
		c.Mode = Full.String()
	}
	for i, je := range f.TraceEvents {
		if je.Ph == "M" {
			continue
		}
		if len(je.Ph) != 1 || (je.Ph != "X" && je.Ph != "i") {
			return Capture{}, fmt.Errorf("trace: event %d: unsupported phase %q", i, je.Ph)
		}
		if je.Name == "" {
			return Capture{}, fmt.Errorf("trace: event %d: empty name", i)
		}
		if je.Ts < 0 || math.IsNaN(je.Ts) || je.Ts > maxMicros {
			return Capture{}, fmt.Errorf("trace: event %d (%s): bad ts %v", i, je.Name, je.Ts)
		}
		if je.Pid < 0 || je.Tid < 0 {
			return Capture{}, fmt.Errorf("trace: event %d (%s): negative pid/tid", i, je.Name)
		}
		ev := Event{
			Name:    je.Name,
			Cat:     je.Cat,
			Phase:   je.Ph[0],
			Ts:      int64(math.Round(je.Ts * 1e3)),
			Replica: int32(je.Pid - 1),
			Worker:  int32(je.Tid),
		}
		if je.Dur != nil {
			if *je.Dur < 0 || math.IsNaN(*je.Dur) || *je.Dur > maxMicros {
				return Capture{}, fmt.Errorf("trace: event %d (%s): bad dur %v", i, je.Name, *je.Dur)
			}
			ev.Dur = int64(math.Round(*je.Dur * 1e3))
		}
		if ev.Phase == 'X' && je.Dur == nil {
			return Capture{}, fmt.Errorf("trace: event %d (%s): complete event without dur", i, je.Name)
		}
		if je.Args != nil {
			if v, ok := je.Args["step"].(float64); ok {
				ev.Step = int64(v)
			}
			if v, ok := je.Args["band"].(float64); ok {
				ev.Band = int32(v)
			}
			if v, ok := je.Args["detail"].(string); ok {
				ev.Detail = v
			}
			if v, ok := je.Args["value"].(float64); ok {
				ev.Value = v
			}
		}
		c.Events = append(c.Events, ev)
	}
	SortEvents(c.Events)
	return c, nil
}

// Validate checks a capture's internal consistency beyond what ReadJSON
// enforces structurally: spans must not extend before the capture epoch,
// layer metadata must be well-formed, and sparsity samples must be
// fractions.
func Validate(c Capture) error {
	for i, ev := range c.Events {
		if ev.Ts < 0 || ev.Dur < 0 {
			return fmt.Errorf("trace: event %d (%s): negative time", i, ev.Name)
		}
		if ev.Cat == "sparsity" && (ev.Value < 0 || ev.Value > 1) {
			return fmt.Errorf("trace: event %d (%s): sparsity %v outside [0,1]", i, ev.Name, ev.Value)
		}
	}
	for _, l := range c.Layers {
		if l.Name == "" || l.FPFlops < 0 || l.BPFlops < 0 {
			return fmt.Errorf("trace: malformed layer metadata %+v", l)
		}
	}
	if c.Mode != Full.String() && c.Mode != Ring.String() {
		return fmt.Errorf("trace: unknown capture mode %q", c.Mode)
	}
	return nil
}
