package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program. Parent is the index of the span that caused it (-1 for a root);
// spans of one op (step, round or request) share Op.
type span struct {
	Name       string
	Start, End int64 // ns since the recorder was made
	Parent     int
	Op         int
}

// recorder keeps spans in memory until the run ends. It holds at most limit
// spans and counts the rest as dropped, so a long serve window cannot grow
// the heap it is measuring without bound. All methods are safe on a nil
// recorder (tracing off) and for concurrent use.
type recorder struct {
	t0      time.Time
	limit   int
	mu      sync.Mutex
	spans   []span
	dropped int
	ops     int
}

func newRecorder(limit int) *recorder {
	return &recorder{t0: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

// now is the recorder's clock: ns since it was made.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newOp returns a fresh id for the spans of one op to share.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records a finished span and returns its index, or -1 when tracing is
// off or the recorder is full.
func (r *recorder) add(name string, start, end int64, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// begin opens a span; finish it with end. Children name the returned index
// as their parent.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	return r.add(name, r.now(), 0, parent, op)
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once and children are clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotal is the aggregate of every span sharing one name.
type spanTotal struct {
	Count int
	Dur   int64 // ns, sum of durations
	Self  int64 // ns, sum of self times
}

// totals aggregates spans by name.
func totals(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := make(map[string]*spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.Count++
		t.Dur += s.End - s.Start
		t.Self += self[i]
	}
	return out
}

// writeFile writes the spans as JSON: one object per span with name,
// start_ns, end_ns, parent and op, as the tracing section of the
// choosing-metrics guide asks.
func (r *recorder) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"dropped\":%d,\"spans\":[", workload, r.dropped)
	buf := make([]byte, 0, 128)
	for i, s := range r.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"name\":"...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, ",\"start_ns\":"...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ",\"end_ns\":"...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, ",\"op\":"...)
		buf = strconv.AppendInt(buf, int64(s.Op), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
