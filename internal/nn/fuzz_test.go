package nn_test

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"spgcnn/internal/core"
	"spgcnn/internal/netdef"
)

// FuzzNetworkLoad feeds arbitrary bytes to nn.Network.Load, the gob
// checkpoint decoder behind spg-train -load and spg-serve -load. The
// contract is an error naming the package or a success, never a panic; a
// success restored every parameter, so the network saves, reloads and
// saves again to the same bytes. Seeds: a real Save of the MNIST network, a
// truncated copy, and a version-1 header.
func FuzzNetworkLoad(f *testing.F) {
	st, _ := core.StrategyByName("stencil", 1)
	net := netdef.MustBuild(netdef.MNISTNet, netdef.BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 1})
	var saved bytes.Buffer
	if err := net.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(struct{ Version int }{1}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := net.Load(bytes.NewReader(data)); err != nil {
			if !strings.HasPrefix(err.Error(), "nn: ") {
				t.Fatalf("error %q does not name the package", err)
			}
			return
		}
		var once, twice bytes.Buffer
		if err := net.Save(&once); err != nil {
			t.Fatalf("Save after a successful Load: %v", err)
		}
		if err := net.Load(bytes.NewReader(once.Bytes())); err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		if err := net.Save(&twice); err != nil {
			t.Fatalf("Save after the reload: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("save, load, save is not byte-stable")
		}
	})
}
