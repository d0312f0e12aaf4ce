package nn

import (
	"fmt"

	"spgcnn/internal/tensor"
)

// Residual skip connections for the strictly-sequential Network: a Tap
// marks the source of a skip and an Add downstream sums the tapped
// activation back in. Forward order visits Tap before Add, so the Add
// reads the Tap's saved batch; backward order visits Add before Tap, so
// the Add deposits the skip gradient for the Tap to fold into its own
// pass-through gradient. The pair shares no parameters — both are
// identities plus one elementwise sum — so any layer stack may sit
// between them as long as the element counts match.

// Tap is the source endpoint of a residual skip connection. Forward is
// the identity; it also retains the batch's outputs for the paired Add.
// Backward adds the gradient the Add deposited to the pass-through
// gradient (the two uses of the tapped activation).
type Tap struct {
	name string
	dims []int

	// saved aliases the layer's own forward outputs (the network's
	// activation storage), valid until the next Forward — the Add reads it
	// within the same pass.
	saved []*tensor.Tensor
	// pending aliases the Add's output gradients for the current backward
	// pass; consumed (and cleared) by this layer's Backward.
	pending []*tensor.Tensor
}

// NewTap builds a skip-connection source over per-image tensors of the
// given dims.
func NewTap(name string, dims []int) *Tap {
	if len(dims) == 0 {
		panic("nn: Tap needs input dims")
	}
	return &Tap{name: name, dims: append([]int(nil), dims...)}
}

// Name implements Layer.
func (l *Tap) Name() string { return l.name }

// InDims implements Layer.
func (l *Tap) InDims() []int { return l.dims }

// OutDims implements Layer.
func (l *Tap) OutDims() []int { return l.dims }

// Forward implements Layer: identity, retaining outs for the paired Add.
func (l *Tap) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	for i := range ins {
		copy(outs[i].Data, ins[i].Data)
	}
	l.saved = outs
}

// Backward implements Layer: pass-through gradient plus the skip gradient
// the paired Add deposited this pass.
func (l *Tap) Backward(eis, eos, _ []*tensor.Tensor) {
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	if l.pending == nil {
		panic(fmt.Sprintf("nn: %s Backward before its Add's (unpaired tap?)", l.name))
	}
	for i := range eos {
		skip := l.pending[i].Data
		ei, eo := eis[i].Data, eos[i].Data
		for j := range eo {
			ei[j] = eo[j] + skip[j]
		}
	}
	l.pending = nil
}

// ApplyGrads implements Layer (no parameters).
func (l *Tap) ApplyGrads(float32, int) {}

// Add is the merge endpoint of a residual skip connection: Forward sums
// the paired Tap's saved activation into the main path, Backward routes
// the gradient both ways (copy downstream, deposit for the Tap).
type Add struct {
	name string
	dims []int
	tap  *Tap
}

// NewAdd builds the merge endpoint over per-image tensors of the given
// dims, summing in the activations of tap (whose element count must
// match; shapes may differ across the skipped stack, e.g. flattened).
func NewAdd(name string, dims []int, tap *Tap) *Add {
	if tap == nil {
		panic("nn: Add needs a tap")
	}
	if prod(dims) != prod(tap.dims) {
		panic(fmt.Sprintf("nn: %s input %v does not match tap %s dims %v",
			name, dims, tap.name, tap.dims))
	}
	return &Add{name: name, dims: append([]int(nil), dims...), tap: tap}
}

// Name implements Layer.
func (l *Add) Name() string { return l.name }

// InDims implements Layer.
func (l *Add) InDims() []int { return l.dims }

// OutDims implements Layer.
func (l *Add) OutDims() []int { return l.dims }

// Forward implements Layer: outs[i] = ins[i] + tapped[i].
func (l *Add) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	if len(l.tap.saved) < len(ins) {
		panic(fmt.Sprintf("nn: %s Forward before tap %s (is the tap upstream?)", l.name, l.tap.name))
	}
	for i := range ins {
		skip := l.tap.saved[i].Data
		out, in := outs[i].Data, ins[i].Data
		for j := range in {
			out[j] = in[j] + skip[j]
		}
	}
}

// Backward implements Layer: the sum's gradient flows unchanged down the
// main path and is deposited for the Tap's skip path.
func (l *Add) Backward(eis, eos, _ []*tensor.Tensor) {
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	for i := range eos {
		copy(eis[i].Data, eos[i].Data)
	}
	l.tap.pending = eos
}

// ApplyGrads implements Layer (no parameters).
func (l *Add) ApplyGrads(float32, int) {}
