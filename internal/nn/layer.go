// Package nn is the CNN training substrate spg-CNN plugs into — the role
// the ADAM and CAFFE platforms play in the paper's evaluation (§5.1). It
// provides the layers of the paper's benchmark networks (convolution,
// ReLU, max-pooling, fully-connected, softmax cross-entropy), a network
// container with preallocated batch storage, and an SGD trainer with
// per-layer error-gradient sparsity probes (the instrumentation behind
// Fig. 3b).
//
// Batches are slices of per-image tensors, matching the execution engines:
// GEMM-in-Parallel-style strategies parallelize across the slice while
// Parallel-GEMM strategies process it sequentially with internal
// parallelism. A Conv holds one core.AutoConv and nothing else between it
// and its kernel; training, pinned and serving layers differ only in the
// planner (and bucket list) the executor is built with. A Conv counts each
// batch's error-gradient zeros once, for the sparsity probe and for its
// executor, which re-plans BP inside the call when the band moves — no
// layer has an epoch hook. No layer times itself either: the Network's
// per-layer clock records every layer call, glue included, as one "layer"
// event in its context's probe.
//
// Training has one step and one epoch record. Trainer.Step is the only
// fill → forward → loss → backward → apply in the tree: TrainEpoch loops
// over it, and a data-parallel replica is a Trainer whose shard of a global
// step is the same call. EpochStats.Account is the only Eq. 9 account:
// both trainers close an epoch's loss, throughput, gradient sparsity and
// dense/useful conv work rates through it.
package nn

import "spgcnn/internal/tensor"

// Layer is one stage of a network. Implementations own their parameters,
// parameter gradients and any per-batch-slot state saved by Forward for
// use in Backward (so a trainer must call Backward on the same batch it
// last forwarded, which is how SGD proceeds).
type Layer interface {
	// Name identifies the layer for reporting ("conv0", "relu1", ...).
	Name() string
	// InDims and OutDims are the per-image tensor shapes.
	InDims() []int
	OutDims() []int
	// Forward computes outs[i] = f(ins[i]) for the batch.
	Forward(outs, ins []*tensor.Tensor)
	// Backward computes the input-error gradients eis[i] from the
	// output-error gradients eos[i] and accumulates parameter gradients for
	// the batch. ins must be the inputs of the last Forward, unmodified: a
	// layer may rebuild from them what its forward decided instead of saving
	// it (ReLU recomputes its select; conv and FC read them for dW), while
	// Tap, Add, Dropout and the pools ignore them. eos belong to the call:
	// a conv with a fused ReLU masks them in place.
	Backward(eis, eos, ins []*tensor.Tensor)
	// ApplyGrads performs the SGD step w -= lr/batch · dw and clears the
	// accumulated gradients. Layers without parameters do nothing.
	ApplyGrads(lr float32, batch int)
}

func dimsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}
