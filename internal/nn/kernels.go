package nn

// The element loops of the ReLU layer, written so the prove pass drops every
// bounds check: length guards up front and range loops (gated by
// scripts/bce_check.sh). ReLU runs on activations that are about half
// negative, so a branch on each element mispredicts often enough to cost
// more than streaming the batch through memory; the loops select with
// kern.Positive's all-ones/zero mask instead. The max-pool's window loops
// are kern.MaxPool; the drivers that slice the batch (and the pool's argmax
// scatter, whose index is data) live in activations.go and pool.go.

import (
	"math"

	"spgcnn/internal/kern"
)

// reluRow writes dst[j] = src[j] where src[j] > 0 and +0 elsewhere.
func reluRow(dst, src []float32) {
	if len(dst) < len(src) {
		panic("nn: reluRow bounds")
	}
	for j, v := range src {
		dst[j] = math.Float32frombits(math.Float32bits(v) & kern.Positive(v))
	}
}

// reluGradRow writes dst[j] = g[j] where x[j] > 0 and +0 elsewhere: the
// forward's select, rebuilt from its input.
func reluGradRow(dst, g, x []float32) {
	if len(g) < len(dst) || len(x) < len(dst) {
		panic("nn: reluGradRow bounds")
	}
	for j := range dst {
		dst[j] = math.Float32frombits(math.Float32bits(g[j]) & kern.Positive(x[j]))
	}
}
