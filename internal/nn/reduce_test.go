package nn

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// reduceEOOracle is reduceEO's element-by-element loop: per sample, every
// plane summed over all of its values and every zero counted.
func reduceEOOracle(s conv.Spec, eos []*tensor.Tensor) (sums [][]float32, zeros []int) {
	plane := s.OutY() * s.OutX()
	for _, eo := range eos {
		z, ss := 0, make([]float32, s.Nf)
		for f := range ss {
			for _, v := range eo.Data[f*plane:][:plane] {
				ss[f] += v
				if v == 0 {
					z++
				}
			}
		}
		sums, zeros = append(sums, ss), append(zeros, z)
	}
	return sums, zeros
}

// TestReduceEOMatchesElementLoop pins dB, the returned batch sparsity and
// the Fig. 3b probe bit for bit to the element loop, over gradients with
// −0, NaN and ±Inf at several sparsities, planes shorter and longer than
// one scan piece, and 1–3 workers.
func TestReduceEOMatchesElementLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	r := rng.New(0xEED)
	for _, s := range []conv.Spec{conv.Square(12, 5, 3, 3, 1), conv.Square(36, 4, 3, 5, 1), conv.Square(8, 6, 2, 5, 1)} {
		for workers := 1; workers <= 3; workers++ {
			c := pinnedConv("c", s, serialStrategy(), workers, r)
			wantDB := make([]float32, s.Nf)
			wantSum, wantBatches := 0.0, 0
			for step, sp := range []float64{0, 0.5, 0.94, 1} {
				var eos []*tensor.Tensor
				for range 1 + step%3 + workers {
					eo := conv.RandOutputError(r, s, sp)
					for i := range eo.Data {
						switch {
						case eo.Data[i] == 0 && r.Intn(3) == 0:
							eo.Data[i] = negZero
						case r.Intn(50) == 0 && sp < 1:
							eo.Data[i] = specials[r.Intn(len(specials))]
						}
					}
					eos = append(eos, eo)
				}
				got := c.reduceEO(eos, nil)
				sums, zeros := reduceEOOracle(s, eos)
				want := 0.0
				for i, eo := range eos {
					x := float64(zeros[i]) / float64(len(eo.Data))
					wantSum += x
					want += x
					wantBatches++
					for f, v := range sums[i] {
						wantDB[f] += v
					}
				}
				want /= float64(len(eos))
				name := fmt.Sprintf("%v workers=%d sparsity=%v", s, workers, sp)
				if got != want {
					t.Fatalf("%s: batch sparsity %v, want %v", name, got, want)
				}
				for f, v := range c.dB.Data {
					if w := wantDB[f]; math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
						t.Fatalf("%s: dB[%d] = %v, want %v", name, f, v, w)
					}
				}
			}
			if got, ok := c.TakeSparsity(); !ok || got != wantSum/float64(wantBatches) {
				t.Fatalf("%v workers=%d: probe %v, want %v", s, workers, got, wantSum/float64(wantBatches))
			}
		}
	}
}
