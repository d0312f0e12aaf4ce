package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"spgcnn/internal/tensor"
)

// Model serialization: weights are saved keyed by layer name, so a network
// rebuilt from the same description (same names, same shapes) can restore
// them — the checkpoint mechanism behind spg-train's -save/-load flags.
// Execution strategy is deliberately NOT serialized: the spg-CNN scheduler
// re-measures on the restoring machine (§4.4's choices are
// machine-specific).

// paramOwner is implemented by layers with learnable parameters.
type paramOwner interface {
	// params returns the layer's parameter tensors keyed by a stable
	// within-layer name.
	params() map[string]*tensor.Tensor
}

// paramSetter is implemented by layers whose parameter tensors can be
// replaced wholesale — the aliasing hook ShareParameters builds on.
type paramSetter interface {
	paramOwner
	// setParam points the named parameter at t. Reports false for an
	// unknown name.
	setParam(name string, t *tensor.Tensor) bool
}

func (c *Conv) params() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"W": c.W, "B": c.B}
}

func (c *Conv) setParam(name string, t *tensor.Tensor) bool {
	switch name {
	case "W":
		c.W = t
	case "B":
		c.B = t
	default:
		return false
	}
	return true
}

func (l *FC) params() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"W": l.W, "B": l.B}
}

func (l *FC) setParam(name string, t *tensor.Tensor) bool {
	switch name {
	case "W":
		l.W = t
	case "B":
		l.B = t
	default:
		return false
	}
	return true
}

// ShareParameters points every parameter of this network at the SAME
// tensors as src — not a copy. The networks must have been built from the
// same description (same layer names, same shapes). Afterwards the two
// networks see identical weights forever, which is exactly what a serving
// replica wants: N forward-only replicas share one read-only parameter
// set, and because a shared tensor keeps one data pointer and one version,
// every replica's packed/blocked weight caches key to the same entry.
// Mutating parameters through either network affects both — inference
// replicas never do (Backward panics; ApplyGrads is never called).
func (n *Network) ShareParameters(src *Network) error {
	srcParams := map[string]*tensor.Tensor{}
	for _, p := range src.Parameters() {
		srcParams[p.Name] = p.Tensor
	}
	shared := 0
	for _, layer := range n.layers {
		ps, ok := layer.(paramSetter)
		if !ok {
			if _, owns := layer.(paramOwner); owns {
				return fmt.Errorf("nn: ShareParameters: layer %q owns parameters but cannot alias them", layer.Name())
			}
			continue
		}
		for name, t := range ps.params() {
			key := layer.Name() + "/" + name
			st, ok := srcParams[key]
			if !ok {
				return fmt.Errorf("nn: ShareParameters: source network has no parameter %q", key)
			}
			if !dimsEqual(st.Dims, t.Dims) {
				return fmt.Errorf("nn: ShareParameters: parameter %q shape %v does not match source shape %v",
					key, t.Dims, st.Dims)
			}
			if !ps.setParam(name, st) {
				return fmt.Errorf("nn: ShareParameters: layer %q rejected parameter %q", layer.Name(), name)
			}
			shared++
		}
	}
	if shared != len(srcParams) {
		return fmt.Errorf("nn: ShareParameters: source has %d parameters, this network aliased %d",
			len(srcParams), shared)
	}
	return nil
}

// NamedParam is one learnable parameter tensor with its stable
// "layer/param" key.
type NamedParam struct {
	Name   string
	Tensor *tensor.Tensor
}

// Parameters returns every learnable parameter of the network, in layer
// order with a deterministic within-layer order. The tensors alias the
// network's live weights (mutations affect the model) — the hook that
// weight averaging, regularizers and inspection tools build on.
func (n *Network) Parameters() []NamedParam {
	var out []NamedParam
	for _, layer := range n.layers {
		po, ok := layer.(paramOwner)
		if !ok {
			continue
		}
		params := po.params()
		// Deterministic order: W before B (the only keys in use), then
		// any others lexicographically.
		for _, key := range []string{"W", "B"} {
			if t, ok := params[key]; ok {
				out = append(out, NamedParam{Name: layer.Name() + "/" + key, Tensor: t})
				delete(params, key)
			}
		}
		rest := make([]string, 0, len(params))
		for key := range params {
			rest = append(rest, key)
		}
		sort.Strings(rest)
		for _, key := range rest {
			out = append(out, NamedParam{Name: layer.Name() + "/" + key, Tensor: params[key]})
		}
	}
	return out
}

// savedTensor is the gob wire form of one parameter tensor.
type savedTensor struct {
	Name string // "layerName/paramName"
	Dims []int
	Data []float32
}

// snapshot is the gob wire form of a whole model: its parameters in
// Parameters order, so the same weights always encode to the same bytes.
// (Version 1 held them in a map, which gob encodes in random order; its
// Params field is not read, so a version-1 file fails the version check.)
type snapshot struct {
	Version int
	Tensors []savedTensor
}

const snapshotVersion = 2

// Save writes every parameter of the network to w in gob format.
func (n *Network) Save(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion}
	seen := map[string]bool{}
	for _, p := range n.Parameters() {
		if seen[p.Name] {
			return fmt.Errorf("nn: duplicate parameter key %q (layer names must be unique)", p.Name)
		}
		seen[p.Name] = true
		snap.Tensors = append(snap.Tensors, savedTensor{Name: p.Name, Dims: p.Tensor.Dims, Data: p.Tensor.Data})
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load restores parameters saved by Save into this network. Every
// parameter in the snapshot must find a same-shaped destination, and every
// parameter of this network must be present in the snapshot — partial
// restores are an error, not a silent half-initialization, and leave the
// network unchanged.
func (n *Network) Load(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("nn: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	want := map[string]*tensor.Tensor{}
	for _, p := range n.Parameters() {
		want[p.Name] = p.Tensor
	}
	if len(want) != len(snap.Tensors) {
		return fmt.Errorf("nn: snapshot has %d parameters, network has %d", len(snap.Tensors), len(want))
	}
	dsts := make([]*tensor.Tensor, len(snap.Tensors))
	for i, saved := range snap.Tensors {
		// Each destination is filled once: a repeated name finds none.
		dst, ok := want[saved.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot parameter %q has no destination in this network", saved.Name)
		}
		delete(want, saved.Name)
		if !dimsEqual(saved.Dims, dst.Dims) || len(saved.Data) != len(dst.Data) {
			return fmt.Errorf("nn: parameter %q shape %v (%d values) does not match network shape %v",
				saved.Name, saved.Dims, len(saved.Data), dst.Dims)
		}
		dsts[i] = dst
	}
	// Only a snapshot that fits as a whole is copied in: a failed Load
	// leaves every parameter as it was.
	for i, saved := range snap.Tensors {
		copy(dsts[i].Data, saved.Data)
	}
	return nil
}
