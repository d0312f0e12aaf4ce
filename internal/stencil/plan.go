// Package stencil implements the paper's Stencil-Kernel (§4.3): direct
// convolution, without unfolding, structured as a register-tiled stencil so
// each input load is reused for several neighbouring outputs — recovering
// the intrinsic AIT that unfolding destroys for small convolutions.
//
// The package mirrors the paper's two-part code generator:
//
//   - The basic block generator (ChoosePlan) picks a register tile
//     (rx, ry) that minimizes input loads per multiply-accumulate subject
//     to a register budget, exactly the geometric optimization §4.3
//     describes (it iterates over all feasible tiles — "commodity machines
//     have a relatively small number of vector registers").
//   - The schedule generator adds cache tiling along the output row (TileX)
//     so the accumulator block plus the input rows it consumes stay
//     L1-resident.
//
// Where the paper's generator emits AVX intrinsics (Fig. 7), this one runs
// every plan through one Go basic block (body.go) whose 4-column × ry-row
// accumulator tile the compiler keeps in registers. The analogue of the
// vector width is the 4-column block.
package stencil

import (
	"fmt"

	"spgcnn/internal/conv"
)

// NumRegisters is the modeled register budget: 16 architectural FP
// registers. On the paper's AVX machine these are 8-float vector
// registers; in this scalar-Go implementation each holds one float, and
// the effective vector width comes from the body's 4-column block —
// so a register tile of rx "vectors" × ry rows consumes 4·rx·ry scalar
// registers for accumulators, 4 for the streaming input values, and ry
// for the broadcast weights (the Fig. 7 register roles).
const NumRegisters = 16

// planVW is the implementation's vector width: the columns of the body's
// register block.
const planVW = 4

// tileFeasible reports whether an (rx, ry) tile fits the register budget.
func tileFeasible(rx, ry int) bool {
	return planVW*rx*ry+planVW+ry <= NumRegisters
}

// MaxRY is the tallest register tile the body holds: 4 columns × 2 rows
// of accumulators, 4 streamed inputs and 2 broadcast weights fill the
// 16-register budget (tileFeasible admits no taller tile).
const MaxRY = 2

// footprintRows is the output-row height chooseTileX sizes its L1
// footprint for — a cache model constant, independent of MaxRY.
const footprintRows = 4

// Plan is the output of the basic-block + schedule generators for one
// convolution: the register tile, the cache tile, and the modeled cost
// that justified the choice.
type Plan struct {
	Spec conv.Spec
	// RX is the register-tile width in vector units; RY its height in
	// output rows. RX·RY accumulators stay live in registers. RX is a model
	// quantity only: the body's block is one vector (4 columns) wide.
	RX, RY int
	// TileX is the output-row cache tile width chosen by the schedule
	// generator.
	TileX int
	// LoadsPerMAC is the modeled input loads per multiply-accumulate for
	// the chosen tile — the quantity the generator minimized.
	LoadsPerMAC float64
	// StrideSplit reports whether the Eq. 21 input layout transform is
	// required (sx > 1).
	StrideSplit bool
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("stencil{rx=%d,ry=%d,tileX=%d,loads/mac=%.3f,split=%v}",
		p.RX, p.RY, p.TileX, p.LoadsPerMAC, p.StrideSplit)
}

// loadsPerMAC models the input vector loads per multiply-accumulate of an
// rx × ry register tile for a kernel of size fx × fy (paper §4.3): the
// tile's outputs consume (ry + fy − 1) input rows of (rx + ceil((fx−1)/vw))
// vectors each, while performing rx·ry·fx·fy vector MACs.
func loadsPerMAC(rx, ry, fx, fy, vw int) float64 {
	if vw < 1 {
		vw = 1
	}
	loads := float64(ry+fy-1) * float64(rx+(fx-1+vw-1)/vw)
	macs := float64(rx*ry) * float64(fx) * float64(fy)
	return loads / macs
}

// ChoosePlan runs the basic-block generator: iterate over every register
// tile satisfying the register budget (tileFeasible) and pick the one
// minimizing loads per MAC; ties break toward the smaller tile. The
// schedule generator then clamps the cache tile to the output width.
// This is the "geometric optimization problem" of §4.3, solved exactly by
// enumeration because commodity machines have few registers.
func ChoosePlan(s conv.Spec) Plan {
	s.MustValidate()
	best := Plan{Spec: s, RX: 1, RY: 1, LoadsPerMAC: loadsPerMAC(1, 1, s.Fx, s.Fy, planVW)}
	for ry := 1; ry <= MaxRY; ry++ {
		for rx := 1; tileFeasible(rx, ry); rx++ {
			l := loadsPerMAC(rx, ry, s.Fx, s.Fy, planVW)
			if l < best.LoadsPerMAC-1e-12 {
				best.RX, best.RY, best.LoadsPerMAC = rx, ry, l
			}
		}
	}
	// Tiles taller than the output are wasted.
	if oy := s.OutY(); best.RY > oy {
		best.RY = oy
		best.LoadsPerMAC = loadsPerMAC(best.RX, best.RY, s.Fx, s.Fy, planVW)
	}
	best.TileX = chooseTileX(s)
	best.StrideSplit = s.Sx > 1
	return best
}

// chooseTileX picks the output-row tile so that a block of footprintRows
// output rows, the input rows feeding it, and a weight row together stay
// within half of a 32 KiB L1 cache.
func chooseTileX(s conv.Spec) int {
	const l1Floats = 32 * 1024 / 4 / 2
	ox := s.OutX()
	// Per output column: footprintRows outputs + (footprintRows + Fy - 1)
	// input positions (times the stride for the raw row footprint).
	perCol := footprintRows + (footprintRows+s.Fy-1)*s.Sx
	tile := l1Floats / perCol
	if tile < 16 {
		tile = 16
	}
	if tile > ox {
		tile = ox
	}
	return tile
}
