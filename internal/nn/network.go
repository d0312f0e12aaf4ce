package nn

import (
	"fmt"

	"spgcnn/internal/tensor"
)

// Network is an ordered stack of layers with preallocated per-batch-slot
// activation and gradient storage, so steady-state training performs no
// tensor allocation.
type Network struct {
	layers []Layer

	// acts[l][i]: output of layer l for batch slot i. grads[l][i]: error
	// gradient of layer l's output for slot i.
	acts  [][]*tensor.Tensor
	grads [][]*tensor.Tensor
	cap   int

	// inference marks a forward-only network: EnsureBatch allocates no
	// gradient storage and Backward panics (serve.go's replicas).
	inference bool

	// profiling state (profile.go).
	profiling bool
	profile   []LayerProfile
}

// NewNetwork validates that consecutive layer shapes chain and returns the
// network. A convolution at layer 0 is marked as the network's first layer:
// nothing reads the input gradient of the data, so its Backward skips Eq. 3
// and leaves its eis argument unwritten — whether Network.Backward or a
// caller walking Layers() drives it.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if prod(layers[i-1].OutDims()) != prod(layers[i].InDims()) {
			panic(fmt.Sprintf("nn: layer %d (%s) output %v does not feed layer %d (%s) input %v",
				i-1, layers[i-1].Name(), layers[i-1].OutDims(),
				i, layers[i].Name(), layers[i].InDims()))
		}
	}
	if c, ok := layers[0].(*Conv); ok {
		c.first = true
	}
	n := &Network{layers: layers}
	n.acts = make([][]*tensor.Tensor, len(layers))
	n.grads = make([][]*tensor.Tensor, len(layers))
	return n
}

// Layers returns the layer stack.
func (n *Network) Layers() []Layer { return n.layers }

// InDims returns the per-image input shape.
func (n *Network) InDims() []int { return n.layers[0].InDims() }

// OutDims returns the per-image output (logits) shape.
func (n *Network) OutDims() []int { return n.layers[len(n.layers)-1].OutDims() }

// SetInference marks the network forward-only: no gradient storage is
// allocated and Backward panics. Meant for freshly built networks (the
// netdef inference build); gradient slots already allocated stay put.
func (n *Network) SetInference() { n.inference = true }

// Inference reports whether the network is forward-only.
func (n *Network) Inference() bool { return n.inference }

// EnsureBatch grows the preallocated activation/gradient storage to hold
// at least `size` batch slots (activations only on inference networks).
func (n *Network) EnsureBatch(size int) {
	if size <= n.cap {
		return
	}
	for l, layer := range n.layers {
		dims := layer.OutDims()
		for len(n.acts[l]) < size {
			n.acts[l] = append(n.acts[l], tensor.New(dims...))
		}
		if n.inference {
			continue
		}
		for len(n.grads[l]) < size {
			n.grads[l] = append(n.grads[l], tensor.New(layer.InDims()...))
		}
	}
	n.cap = size
}

// reshaped returns ts[i] viewed with the given dims (activations flow
// between layers that may flatten, e.g. pool -> FC).
func reshaped(ts []*tensor.Tensor, dims []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		if dimsEqual(t.Dims, dims) {
			out[i] = t
		} else {
			out[i] = t.Reshape(dims...)
		}
	}
	return out
}

// Forward runs the batch through every layer and returns the logits
// (aliasing internal storage — valid until the next Forward).
func (n *Network) Forward(ins []*tensor.Tensor) []*tensor.Tensor {
	n.EnsureBatch(len(ins))
	cur := ins
	for l, layer := range n.layers {
		in := reshaped(cur, layer.InDims())
		out := n.acts[l][:len(ins)]
		n.timed(l, false, func() { layer.Forward(out, in) })
		cur = out
	}
	return cur
}

// Backward runs back-propagation from the logits gradients, given the
// original batch inputs, accumulating parameter gradients in each layer.
func (n *Network) Backward(dlogits, ins []*tensor.Tensor) {
	if n.inference {
		panic("nn: Backward on an inference-only network")
	}
	batch := len(dlogits)
	cur := dlogits
	for l := len(n.layers) - 1; l >= 0; l-- {
		layer := n.layers[l]
		var layerIns []*tensor.Tensor
		if l == 0 {
			layerIns = ins
		} else {
			layerIns = n.acts[l-1][:batch]
		}
		layerIns = reshaped(layerIns, layer.InDims())
		eos := reshaped(cur, layer.OutDims())
		eis := n.grads[l][:batch]
		n.timed(l, true, func() { layer.Backward(eis, eos, layerIns) })
		cur = eis
	}
}

// ApplyGrads performs the SGD step on every layer.
func (n *Network) ApplyGrads(lr float32, batch int) {
	for _, layer := range n.layers {
		layer.ApplyGrads(lr, batch)
	}
}

// EpochEnd notifies every layer (spg-CNN BP re-check hook).
func (n *Network) EpochEnd() {
	for _, layer := range n.layers {
		layer.EpochEnd()
	}
}

// ConvLayers returns the convolution layers, in order — the Fig. 3b/Fig. 8
// instrumentation points.
func (n *Network) ConvLayers() []*Conv {
	var out []*Conv
	for _, l := range n.layers {
		if c, ok := l.(*Conv); ok {
			out = append(out, c)
		}
	}
	return out
}
