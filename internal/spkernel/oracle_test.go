package spkernel

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/batchpar"
	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/kern"
	"spgcnn/internal/rng"
	"spgcnn/internal/sparse"
	"spgcnn/internal/tensor"
)

// ctcsrKernel is the Sparse-Kernel with Eq. 4 as the CT-CSR walk: every
// sample's EO compressed once, and each stored non-zero shifting its input
// window into its feature's dW′ block in memory. It is the oracle the
// feature-by-feature register walk is pinned against.
type ctcsrKernel struct{ *Kernel }

func (o ctcsrKernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	o.BackwardBatch(c, nil, dw, eos, ins, nil)
}

func (o ctcsrKernel) BackwardBatch(c *exec.Ctx, eis []*tensor.Tensor, dw *tensor.Tensor,
	eos, ins []*tensor.Tensor, w *tensor.Tensor) {
	s := o.spec
	if eis != nil {
		o.BackwardInputBatch(c, eis, eos, w)
	}
	inHWC := tensor.New(s.Ny, s.Nx, s.Nc)
	dwT := tensor.New(s.Nf, s.Fy, s.Fx, s.Nc)
	var ceo sparse.CTCSR
	for i, eo := range eos {
		sparse.FromPlanesCTInto(&ceo, eo.Data, s.OutY()*s.OutX(), s.Nf, o.tileWidth)
		tensor.CHWToHWCInto(inHWC, ins[i])
		shiftWeights(s, &ceo, inHWC.Data, dwT.Data)
	}
	tensor.FKKCToFCKKInto(dw, dwT)
}

// shiftWeights is the CT-CSR walk's Eq. 4 half: tile by tile, position by
// position, v·window accumulated into the feature's block, one AxpyRuns
// per non-zero.
func shiftWeights(s conv.Spec, ceo *sparse.CTCSR, img, blocks []float32) {
	run, imgRow := s.Fx*s.Nc, s.Nx*s.Nc
	block := s.Fy * run
	span := (s.Fy-1)*imgRow + run
	for t, tile := range ceo.Tiles {
		row := 0
		for yq := 0; yq < s.OutY(); yq++ {
			for xq := 0; xq < s.OutX(); xq++ {
				win := img[yq*s.Sy*imgRow+xq*s.Sx*s.Nc:][:span]
				for p := tile.RowPtr[row]; p < tile.RowPtr[row+1]; p++ {
					blk := blocks[(t*ceo.TileWidth+int(tile.ColIdx[p]))*block:][:block]
					kern.AxpyRuns(blk, win, tile.Values[p], run, run, imgRow)
				}
				row++
			}
		}
	}
}

// sameBits reports whether a and b hold the same bits, any NaN matching
// any NaN: x86 picks a NaN operand's payload by register order, which the
// two walks need not share.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return false
		}
	}
	return true
}

// poison sets a few elements of t to ±Inf, NaN and −0.
func poison(r *rng.RNG, t *tensor.Tensor) {
	bad := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), float32(math.Copysign(0, -1))}
	for range 4 {
		t.Data[r.Intn(len(t.Data))] = bad[r.Intn(len(bad))]
	}
}

// TestWeightsMatchCTCSRWalk pins Eq. 4 bit for bit to the CT-CSR walk, for
// the fused and the dW-only entry, through batchpar's per-worker chunk
// sums. The specs are CIFAR conv0/conv1, Table 1's kernel geometries
// (its Nc and F, at a small image and feature count) and a strided one;
// their blocks run from one held slice to dozens.
func TestWeightsMatchCTCSRWalk(t *testing.T) {
	specs := []conv.Spec{
		conv.Square(36, 64, 3, 5, 1), // CIFAR conv0
		conv.Square(8, 64, 64, 5, 1), // CIFAR conv1
		conv.Square(7, 5, 32, 4, 1),  // Table 1 ID 0
		conv.Square(5, 3, 512, 2, 1), // ID 1
		conv.Square(6, 3, 128, 3, 1), // ID 2
		conv.Square(9, 3, 64, 7, 1),  // ID 3
		conv.Square(7, 2, 256, 5, 1), // ID 4
		conv.Square(13, 4, 16, 11, 1),
		{Nx: 17, Ny: 15, Nc: 6, Nf: 7, Fx: 3, Fy: 4, Sx: 2, Sy: 3}, // strided
	}
	r := rng.New(0x5EED)
	for _, s := range specs {
		gen := Generator()
		oracle := engine.Generator{Name: "sparse-ctcsr", New: func(s conv.Spec) engine.Kernel { return ctcsrKernel{New(s, 0)} }}
		got, want := batchpar.New(gen, s), batchpar.New(oracle, s)
		w := conv.RandWeights(r, s)
		for _, sp := range []float64{0, 0.5, 0.94, 0.99, 1} {
			for _, batch := range []int{1, 3} {
				var eos, ins []*tensor.Tensor
				for range batch {
					eo, in := conv.RandOutputError(r, s, sp), conv.RandInput(r, s)
					if sp < 1 {
						poison(r, eo)
						poison(r, in)
					}
					eos, ins = append(eos, eo), append(ins, in)
				}
				for _, workers := range []int{1, 2, 3} {
					c := exec.New(workers)
					name := fmt.Sprintf("%v sparsity=%v batch=%d workers=%d", s, sp, batch, workers)
					wantDW, gotDW := conv.NewWeights(s), conv.NewWeights(s)
					want.Fused().BackwardBatch(c, nil, wantDW, eos, ins, w)
					got.Fused().BackwardBatch(c, nil, gotDW, eos, ins, w)
					if !sameBits(gotDW, wantDW) {
						t.Fatalf("%s: fused dW differs from the CT-CSR walk", name)
					}
					gotDW.FillUniform(r, 1, 2)
					got.BackwardWeightsBatch(c, gotDW, eos, ins)
					if !sameBits(gotDW, wantDW) {
						t.Fatalf("%s: dW-only entry differs from the CT-CSR walk", name)
					}
				}
			}
		}
	}
}

// TestWeightsMatchCTCSRWalkFinite runs the pin with finite operands under
// tensor.Identical, through the fused entry with an input gradient.
func TestWeightsMatchCTCSRWalkFinite(t *testing.T) {
	r := rng.New(0xF1)
	for _, s := range []conv.Spec{conv.Square(36, 64, 3, 5, 1), conv.Square(8, 64, 64, 5, 1),
		{Nx: 17, Ny: 15, Nc: 6, Nf: 7, Fx: 3, Fy: 4, Sx: 2, Sy: 3}} {
		k, o := New(s, 0), ctcsrKernel{New(s, 0)}
		w := conv.RandWeights(r, s)
		c := exec.New(1)
		for _, sp := range []float64{0, 0.5, 0.94, 0.99} {
			eos := []*tensor.Tensor{conv.RandOutputError(r, s, sp), conv.RandOutputError(r, s, sp)}
			ins := []*tensor.Tensor{conv.RandInput(r, s), conv.RandInput(r, s)}
			eis := []*tensor.Tensor{conv.NewInput(s), conv.NewInput(s)}
			gotDW, wantDW := conv.NewWeights(s), conv.NewWeights(s)
			k.BackwardBatch(c, eis, gotDW, eos, ins, w)
			o.BackwardBatch(c, nil, wantDW, eos, ins, w)
			if !tensor.Identical(gotDW, wantDW) {
				t.Fatalf("%v sparsity=%v: dW not identical to the CT-CSR walk", s, sp)
			}
		}
	}
}
