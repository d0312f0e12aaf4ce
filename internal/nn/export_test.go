package nn

import "spgcnn/internal/tensor"

// Hooks for the external nn_test package, whose tests need netdef (which
// imports nn).

// GlueInput and GlueKinds are the glue oracles' input families.
var (
	GlueInput = glueInput
	GlueKinds = glueKinds
)

// NetworkGrads returns the input-error gradients the network's layer l
// wrote in its last Backward.
func NetworkGrads(n *Network, l int) []*tensor.Tensor { return n.grads[l] }

// ConvGrads returns a conv layer's accumulated parameter gradients.
func ConvGrads(c *Conv) (dW, dB *tensor.Tensor) { return c.dW, c.dB }
