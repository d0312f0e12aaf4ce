package plan

import (
	"bytes"
	"strings"
	"testing"

	"spgcnn/internal/machine"
)

// FuzzPlannerLoad: a plan cache is bytes from another process, so every
// input either fails Load with a "plan:" error and adopts nothing, or
// adopts entries that Save writes back as a cache a fresh planner reloads
// whole, and whose second save is byte-identical to the first. The seed
// corpus (a saved cache and hostile edits of it: a wrong schema, negative
// workers, a band out of range, a spec Validate refuses, a null entry,
// spelled-out spec defaults) is in testdata/fuzz/FuzzPlannerLoad.
func FuzzPlannerLoad(f *testing.F) {
	host := machine.Host{OS: "linux", Arch: "amd64", CPUs: 4, GoVersion: "go-test", Hostname: "h1"}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(Options{Host: host})
		n, err := p.Load(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "plan: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			if n != 0 || p.Entries() != 0 {
				t.Fatalf("failed Load adopted %d entries (planner holds %d)", n, p.Entries())
			}
			return
		}
		if p.Entries() > n {
			t.Fatalf("Load reported %d adopted entries, planner holds %d", n, p.Entries())
		}
		var saved bytes.Buffer
		if err := p.Save(&saved); err != nil {
			t.Fatalf("Save of the adopted entries: %v", err)
		}
		q := New(Options{Host: host})
		m, err := q.Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved cache: %v", err)
		}
		if m != p.Entries() {
			t.Fatalf("reload adopted %d of the %d saved entries", m, p.Entries())
		}
		var again bytes.Buffer
		if err := q.Save(&again); err != nil {
			t.Fatalf("Save after the reload: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("save, load, save is not byte-stable:\n%s\n---\n%s", saved.Bytes(), again.Bytes())
		}
	})
}
