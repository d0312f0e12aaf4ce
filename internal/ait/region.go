package ait

import (
	"fmt"

	"spgcnn/internal/conv"
)

// Region is one of the six cells of the paper's Fig. 1 design space,
// spanned by AIT (which tracks ≈ 2 × output feature count) on one axis and
// sparsity on the other. Even regions are the dense column, odd regions
// the sparse column; rows descend from high AIT to low AIT.
type Region int

const (
	// Region0: high AIT, dense. Unfold+Parallel-GEMM scales and runs near
	// peak; nothing to fix.
	Region0 Region = iota
	// Region1: high AIT, sparse. Scales, high throughput, poor goodput →
	// Sparse-Kernel.
	Region1
	// Region2: moderate AIT, dense. Good single-core performance, poor
	// scalability → GEMM-in-Parallel.
	Region2
	// Region3: moderate AIT, sparse. Poor scalability and poor goodput →
	// GEMM-in-Parallel (FP) + Sparse-Kernel (BP).
	Region3
	// Region4: low AIT, dense. Poor single-core performance and poor
	// scalability → Stencil-Kernel.
	Region4
	// Region5: low AIT, sparse. Poor everything → Stencil-Kernel (FP) +
	// Sparse-Kernel (BP).
	Region5
)

// Fig. 1's axis thresholds, expressed in output-feature count (the paper
// notes AIT ≈ 2 × number of features) and sparsity fraction. The feature
// thresholds are the crossover points §4.4 reports for the paper's
// implementation and machine: Parallel-GEMM stops being competitive below
// 1024 features, and Stencil-Kernel wins below 128 output features. The
// sparsity threshold is §4.4's 75% crossover for Sparse-Kernel BP.
const (
	HighAITFeatures     = 1024
	ModerateAITFeatures = 128
	SparsityThreshold   = 0.75
)

// BandCount is the number of sparsity bands. Sparsity is quantized into
// quarters, so the band boundaries fall at 0.25, 0.50 and 0.75 — the last
// being SparsityThreshold, Fig. 1's dense/sparse crossover. Plan-cache keys
// carry the band, so a BP verdict is shared across minibatches while
// crossing the crossover always re-keys; a conv layer re-plans its BP
// verdict when its batches leave the band it was deployed at.
const BandCount = 4

// Band quantizes a sparsity fraction into its band.
func Band(sparsity float64) int {
	if sparsity <= 0 {
		return 0
	}
	if sparsity >= 1 {
		return BandCount - 1
	}
	b := int(sparsity * BandCount)
	if b >= BandCount {
		b = BandCount - 1
	}
	return b
}

// Classify places a convolution with the given dynamic sparsity (of its
// BP error gradients; pass 0 for a purely dense/FP analysis) into its
// Fig. 1 region.
func Classify(s conv.Spec, sparsity float64) Region {
	sparse := sparsity > SparsityThreshold
	switch {
	case s.Nf >= HighAITFeatures:
		if sparse {
			return Region1
		}
		return Region0
	case s.Nf >= ModerateAITFeatures:
		if sparse {
			return Region3
		}
		return Region2
	default:
		if sparse {
			return Region5
		}
		return Region4
	}
}

// DenseRegion and SparseRegion return the pair of regions a convolution
// occupies across a training run (dense early, sparse once gradients
// sparsify) — the "Region: 4,5"-style pairs of Table 1.
func DenseRegion(s conv.Spec) Region  { return Classify(s, 0) }
func SparseRegion(s conv.Spec) Region { return Classify(s, 1) }

// String returns "Region N".
func (r Region) String() string { return fmt.Sprintf("Region %d", int(r)) }

// Properties describes the Unfold+Parallel-GEMM performance
// characteristics of a region, per Fig. 1.
type Properties struct {
	Scalable        bool // Parallel-GEMM scales to all cores
	SingleCoreFast  bool // high AIT even after unfolding
	GoodputLimited  bool // sparse data wastes dense-kernel throughput
	Recommendations []string
}

// Props returns the region's characteristics and the spg-CNN techniques
// Fig. 1 prescribes for it.
func (r Region) Props() Properties {
	switch r {
	case Region0:
		return Properties{Scalable: true, SingleCoreFast: true,
			Recommendations: []string{"Parallel-GEMM"}}
	case Region1:
		return Properties{Scalable: true, SingleCoreFast: true, GoodputLimited: true,
			Recommendations: []string{"Parallel-GEMM (FP)", "Sparse-Kernel (BP)"}}
	case Region2:
		return Properties{SingleCoreFast: true,
			Recommendations: []string{"GEMM-in-Parallel"}}
	case Region3:
		return Properties{SingleCoreFast: true, GoodputLimited: true,
			Recommendations: []string{"GEMM-in-Parallel (FP)", "Sparse-Kernel (BP)"}}
	case Region4:
		return Properties{
			Recommendations: []string{"Stencil-Kernel (FP)", "GEMM-in-Parallel"}}
	case Region5:
		return Properties{GoodputLimited: true,
			Recommendations: []string{"Stencil-Kernel (FP)", "Sparse-Kernel (BP)"}}
	default:
		return Properties{}
	}
}

// Analysis bundles every static metric of one convolution — a row of the
// paper's Table 1.
type Analysis struct {
	Spec         conv.Spec
	IntrinsicAIT float64
	UnfoldAIT    float64
	Ratio        float64
	DenseRegion  Region
	SparseRegion Region
}

// Analyze computes the full static characterization of s.
func Analyze(s conv.Spec) Analysis {
	return Analysis{
		Spec:         s,
		IntrinsicAIT: Intrinsic(s),
		UnfoldAIT:    Unfold(s),
		Ratio:        Ratio(s),
		DenseRegion:  DenseRegion(s),
		SparseRegion: SparseRegion(s),
	}
}
