package netdef

import (
	"strings"
	"testing"
)

// FuzzParse: Parse never panics; it returns either a description with a
// positive input block and at least one typed layer, or a nil description
// and a "netdef:" error. The seed corpus (the seven committed descriptions)
// is in testdata/fuzz/FuzzParse; FuzzBuild carries the same inputs on
// through Build.
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

// FuzzBuild: Parse then Build never panic, and Build never allocates past
// MaxElems: every description either fails with a "netdef:" error or
// builds a network whose input is the declared one and whose layers chain.
// The seed corpus (the seven committed descriptions, and descriptions that
// once panicked inside an nn constructor) is in testdata/fuzz/FuzzBuild.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		def, err := Parse(src)
		if err != nil {
			return
		}
		net, err := Build(def, BuildOptions{Workers: 1, Seed: 1})
		if err != nil {
			if net != nil {
				t.Fatalf("error %q returned with a network", err)
			}
			if !strings.HasPrefix(err.Error(), "netdef: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		in := net.InDims()
		if len(in) != 3 || in[0] != def.Input.Channels || in[1] != def.Input.Height || in[2] != def.Input.Width {
			t.Fatalf("built input %v for declared %+v", in, def.Input)
		}
		if len(net.Layers()) == 0 {
			t.Fatal("built a network with no layers")
		}
	})
}
