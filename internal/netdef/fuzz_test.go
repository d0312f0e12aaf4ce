package netdef

import (
	"strings"
	"testing"
)

// FuzzParse: Parse never panics; it returns either a description with a
// positive input block and at least one typed layer, or a nil description
// and a "netdef:" error. Build is left out: a large declared shape makes it
// allocate without bound. The seed corpus (the seven committed
// descriptions) is in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		def, err := Parse(src)
		if err != nil {
			if def != nil {
				t.Fatalf("error %q returned with a description", err)
			}
			if !strings.HasPrefix(err.Error(), "netdef: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		if in := def.Input; in.Channels < 1 || in.Height < 1 || in.Width < 1 {
			t.Fatalf("accepted input %+v", in)
		}
		if len(def.Layers) == 0 {
			t.Fatal("accepted a description with no layers")
		}
		for i, l := range def.Layers {
			if l.Type == "" {
				t.Fatalf("accepted layer %d with no type", i)
			}
		}
	})
}
