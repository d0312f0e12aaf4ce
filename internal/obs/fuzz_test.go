package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadReport: a drift report is bytes from another process, so every
// input either fails ReadReport with an "obs:" error, or yields a report
// that validates and renders without a panic. The seed corpus (the
// committed sample report and hostile edits of it: a missing schema, a
// wrong phase, a negative time, an out-of-range row or event region) is in
// testdata/fuzz/FuzzReadReport.
func FuzzReadReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "obs: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("ReadReport returned a report that fails Validate: %v", err)
		}
		rep.Render(io.Discard)
	})
}
