package nn

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func tinySpec() conv.Spec { return conv.Square(6, 3, 2, 3, 1) }

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(1)
	src := tinyNet(r, 1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A network built with a different seed has different weights...
	dst := tinyNet(rng.New(999), 1)
	sc, dc := src.ConvLayers()[0], dst.ConvLayers()[0]
	if tensor.MaxAbsDiff(sc.W, dc.W) == 0 {
		t.Fatal("test precondition: weights should differ before Load")
	}
	// ...until restored.
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(sc.W, dc.W) != 0 || tensor.MaxAbsDiff(sc.B, dc.B) != 0 {
		t.Fatal("conv weights not restored")
	}
	// Restored network computes identically.
	in := tensor.New(src.InDims()...)
	in.FillNormal(r, 0, 1)
	a := src.Forward([]*tensor.Tensor{in})[0].Clone()
	b := dst.Forward([]*tensor.Tensor{in})[0]
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("restored network computes differently")
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	r := rng.New(2)
	src := tinyNet(r, 1)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Build a different-geometry network with the same layer names.
	other := NewNetwork(exec.New(1),
		NewFCCtx("conv0", []int{8}, 3, exec.New(1), r), // name collides, shape differs
	)
	if err := other.Load(&buf); err == nil {
		t.Fatal("Load accepted mismatched network")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	r := rng.New(3)
	net := tinyNet(r, 1)
	if err := net.Load(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestLoadRejectsPartialSnapshot(t *testing.T) {
	r := rng.New(4)
	// Snapshot from a 1-conv net cannot restore a 2-param-layer net.
	small := NewNetwork(exec.New(1), NewFCCtx("fc", []int{4}, 2, exec.New(1), r))
	var buf bytes.Buffer
	if err := small.Save(&buf); err != nil {
		t.Fatal(err)
	}
	big := tinyNet(r, 1)
	if err := big.Load(&buf); err == nil {
		t.Fatal("Load accepted a snapshot with missing parameters")
	}
}

// TestSaveIsDeterministic: the same weights encode to the same bytes, so
// two checkpoints can be compared with cmp.
func TestSaveIsDeterministic(t *testing.T) {
	net := tinyTrainNet(rng.New(8))
	var first bytes.Buffer
	if err := net.Save(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := net.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d encoded the same weights to different bytes", i+2)
		}
	}
}

// TestLoadRejectsMalformedSnapshots: a well-formed gob stream that does not
// describe this network is an error, never a partial restore.
func TestLoadRejectsMalformedSnapshots(t *testing.T) {
	net := tinyTrainNet(rng.New(9))
	var good []savedTensor
	for _, p := range net.Parameters() {
		good = append(good, savedTensor{Name: p.Name, Dims: p.Tensor.Dims, Data: p.Tensor.Data})
	}
	encode := func(v any) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	short := append([]savedTensor(nil), good...)
	short[0].Data = short[0].Data[:1]
	twice := append([]savedTensor(nil), good...)
	twice[1] = twice[0]
	type snapshotV1 struct {
		Version int
		Params  map[string]savedTensor
	}
	for name, tc := range map[string]struct {
		stream *bytes.Buffer
		want   string
	}{
		"version 1":      {encode(snapshotV1{Version: 1, Params: map[string]savedTensor{good[0].Name: good[0]}}), "version 1"},
		"short data":     {encode(snapshot{Version: snapshotVersion, Tensors: short}), "does not match"},
		"name twice":     {encode(snapshot{Version: snapshotVersion, Tensors: twice}), "no destination"},
		"parameter lost": {encode(snapshot{Version: snapshotVersion, Tensors: good[1:]}), "parameters"},
	} {
		err := net.Load(tc.stream)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load err = %v, want it to mention %q", name, err, tc.want)
		}
	}
}

// TestFailedLoadLeavesNetworkUnchanged: a snapshot whose last parameter
// does not fit restores none of the parameters before it.
func TestFailedLoadLeavesNetworkUnchanged(t *testing.T) {
	net, other := tinyTrainNet(rng.New(9)), tinyTrainNet(rng.New(10))
	snap := snapshot{Version: snapshotVersion}
	var before [][]float32
	for i, p := range other.Parameters() {
		snap.Tensors = append(snap.Tensors, savedTensor{Name: p.Name, Dims: p.Tensor.Dims, Data: p.Tensor.Data})
		before = append(before, append([]float32(nil), net.Parameters()[i].Tensor.Data...))
	}
	last := &snap.Tensors[len(snap.Tensors)-1]
	last.Data = last.Data[:len(last.Data)-1]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := net.Load(&buf); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("Load err = %v, want a shape mismatch", err)
	}
	for i, p := range net.Parameters() {
		for j, v := range p.Tensor.Data {
			if v != before[i][j] {
				t.Fatalf("failed Load changed %s[%d]: %v -> %v", p.Name, j, before[i][j], v)
			}
		}
	}
}

func TestSaveRejectsDuplicateLayerNames(t *testing.T) {
	r := rng.New(5)
	net := NewNetwork(exec.New(1),
		NewFCCtx("same", []int{4}, 4, exec.New(1), r),
		NewFCCtx("same", []int{4}, 2, exec.New(1), r),
	)
	var buf bytes.Buffer
	if err := net.Save(&buf); err == nil {
		t.Fatal("Save accepted duplicate layer names")
	}
}

func TestCheckpointResumesTraining(t *testing.T) {
	// Train 2 epochs, checkpoint, train 1 more; separately restore the
	// checkpoint and train 1 epoch with the same data order — identical
	// final weights.
	r1 := rng.New(6)
	netA := tinyTrainNet(rng.New(7))
	tr := NewTrainer(netA, 0.05, 4)
	ds := &syntheticDS{n: 16, classes: 4, dims: netA.InDims()}
	tr.TrainEpoch(ds, r1)
	tr.TrainEpoch(ds, r1)
	var ckpt bytes.Buffer
	if err := netA.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	epochRNG := rng.New(42)
	tr.TrainEpoch(ds, epochRNG)

	netB := tinyTrainNet(rng.New(999))
	if err := netB.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	trB := NewTrainer(netB, 0.05, 4)
	trB.TrainEpoch(ds, rng.New(42))

	a, b := netA.ConvLayers()[0], netB.ConvLayers()[0]
	if d := tensor.MaxAbsDiff(a.W, b.W); d > 1e-6 {
		t.Fatalf("resumed training diverged: max weight diff %g", d)
	}
}

// tinyTrainNet is a deterministic conv+relu+fc net for training tests.
func tinyTrainNet(r *rng.RNG) *Network {
	s := tinySpec()
	cv := pinnedConv("conv0", s, serialStrategy(), 1, r)
	re := NewReLU("relu0", cv.OutDims(), 1)
	fc := NewFCCtx("fc0", re.OutDims(), 4, exec.New(1), r)
	return NewNetwork(cv.Ctx(), cv, re, fc)
}

// syntheticDS is a minimal in-package Dataset for trainer tests.
type syntheticDS struct {
	n, classes int
	dims       []int
}

func (d *syntheticDS) Len() int     { return d.n }
func (d *syntheticDS) Classes() int { return d.classes }
func (d *syntheticDS) Label(i int) int {
	return i % d.classes
}
func (d *syntheticDS) Image(i int, dst *tensor.Tensor) {
	r := rng.New(uint64(i) * 0x9e3779b97f4a7c15)
	dst.FillNormal(r, float32(d.Label(i)), 1)
}
