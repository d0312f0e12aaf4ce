package unfoldgemm

import (
	"fmt"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// BenchmarkPhases times each phase of one batch of 16 on the layer shapes
// the training workloads deploy unfold+GEMM on: the workload zoo's padded
// 3×3, depthwise, 1×1 and dilated convolutions (32×32, and the depthwise
// net's 8×8 dw2 and pw2, whose BP-dW gathers 4 images per sub-batch) and
// the two CIFAR layers, serial (GEMM-in-Parallel's per-worker kernel) and
// at 2 workers. cifar-conv1-b8 is conv1 at batch 8, the chunk each of
// GEMM-in-Parallel's 2 workers runs.
// BP-EI runs at the EO sparsities those layers see (0.5, and 0.9 in front
// of a 4×4 pool).
func BenchmarkPhases(b *testing.B) {
	specs := []struct {
		name  string
		s     conv.Spec
		batch int
	}{
		{"zoo-3x3", conv.Spec{Nx: 32, Ny: 32, Nc: 16, Nf: 16, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1}, 16},
		{"zoo-dw1", conv.Spec{Nx: 32, Ny: 32, Nc: 16, Nf: 16, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 16}, 16},
		{"zoo-pw1", conv.Square(32, 32, 16, 1, 1), 16},
		{"zoo-d4", conv.Spec{Nx: 32, Ny: 32, Nc: 16, Nf: 32, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 4, Py: 4, Dx: 4, Dy: 4}, 16},
		{"zoo-dw2", conv.Spec{Nx: 8, Ny: 8, Nc: 32, Nf: 32, Fx: 3, Fy: 3, Sx: 1, Sy: 1, Px: 1, Py: 1, Groups: 32}, 16},
		{"zoo-pw2", conv.Square(8, 64, 32, 1, 1), 16},
		{"cifar-conv0", conv.Square(36, 64, 3, 5, 1), 16},
		{"cifar-conv1", conv.Square(8, 64, 64, 5, 1), 16},
		{"cifar-conv1-b8", conv.Square(8, 64, 64, 5, 1), 8},
	}
	for _, sp := range specs {
		s, batch := sp.s, sp.batch
		r := rng.New(1)
		w := conv.RandWeights(r, s)
		var ins, outs, eis, eos5, eos9 []*tensor.Tensor
		for i := 0; i < batch; i++ {
			ins = append(ins, conv.RandInput(r, s))
			outs = append(outs, conv.NewOutput(s))
			eis = append(eis, conv.NewInput(s))
			eos5 = append(eos5, conv.RandOutputError(r, s, 0.5))
			eos9 = append(eos9, conv.RandOutputError(r, s, 0.9))
		}
		dw := conv.NewWeights(s)
		for _, workers := range []int{1, 2} {
			k, c := New(s, workers), exec.New(workers)
			run := func(phase string, fn func()) {
				b.Run(fmt.Sprintf("%s/%s/w%d", sp.name, phase, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						fn()
					}
				})
			}
			run("fp", func() { k.ForwardBatch(c, outs, ins, w) })
			run("bpi-0.5", func() { k.BackwardInputBatch(c, eis, eos5, w) })
			run("bpi-0.9", func() { k.BackwardInputBatch(c, eis, eos9, w) })
			run("bpw", func() { k.BackwardWeightsBatch(c, dw, eos5, ins) })
		}
	}
}
