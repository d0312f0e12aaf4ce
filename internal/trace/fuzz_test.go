package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCapture: a capture file is bytes from another process, so every
// input either fails ReadJSON or Validate with a "trace:" error, or yields
// a capture whose event ends fit the nanosecond clock and which the three
// analyzers spg-doctor runs summarize without a panic. The seed corpus (the
// committed sample capture and hostile edits of it: a wrong phase, a
// negative dur, a huge ts, a ts + dur past the int64 clock) is in
// testdata/fuzz/FuzzReadCapture.
func FuzzReadCapture(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadJSON(bytes.NewReader(data))
		if err == nil {
			err = Validate(c)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		for i, ev := range c.Events {
			if ev.Ts+ev.Dur < ev.Ts {
				t.Fatalf("event %d (%s) accepted with an end past the int64 clock: ts %d dur %d", i, ev.Name, ev.Ts, ev.Dur)
			}
		}
		if spans := TopSpans(c.Events, 5); len(spans) > 5 {
			t.Fatalf("TopSpans(5) returned %d rows", len(spans))
		}
		Stragglers(c)
		if rep := GoodputWaste(c); len(rep.Rows) != len(c.Layers) {
			t.Fatalf("%d waste rows for %d layers", len(rep.Rows), len(c.Layers))
		}
	})
}
