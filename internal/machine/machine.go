// Package machine is an analytical multicore performance model — the
// documented substitution for the paper's 16-core Xeon E5-2650 testbed
// (DESIGN.md §2). It turns the §3 AIT characterization into predicted
// GFlops-per-core curves via a saturating roofline:
//
//	perf(AIT) = Peak · AIT / (AIT + HalfPerfAIT)
//
// capped by a shared-memory-bandwidth ceiling across cores. Each spg-CNN
// technique maps onto the model through exactly the mechanism the paper
// identifies:
//
//   - Parallel-GEMM: row-partitioned MM, every core streams the whole
//     unfolded operand → AIT/core falls with p (ait.MM.AITPerCoreRow).
//   - GEMM-in-Parallel: whole GEMMs per core → AIT/core constant;
//     only shared-bandwidth contention grows with p.
//   - Stencil-Kernel: no unfolding; throughput limited by the generated
//     basic block's loads-per-MAC rather than by operand streaming.
//   - Sparse-Kernel: goodput = useful flops over (layout-transform time +
//     non-zero work time); the transform term dominates past ~90% sparsity,
//     producing Fig. 4e's roll-off.
//
// The executable engines in this repository implement the same strategies
// for real; this model exists so the paper's multicore *figures* can be
// regenerated deterministically on hosts without 16 cores or AVX.
package machine

import (
	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/stencil"
)

// Machine holds the calibrated model constants.
type Machine struct {
	// Cores is the physical core count (the paper's machine: 16).
	Cores int
	// PeakGFlopsPerCore is per-core single-precision peak (paper: 41.6).
	PeakGFlopsPerCore float64
	// HalfPerfAIT is the arithmetic intensity (flops per data element) at
	// which a kernel reaches half of peak — the knee of the saturating
	// roofline.
	HalfPerfAIT float64
	// SharedBandwidthGBs is the socket-wide *achievable* streaming
	// bandwidth that all cores' traffic shares (E5-2650: 4×DDR3-1600 is
	// 51.2 GB/s theoretical; ~50% is sustainable under mixed access).
	SharedBandwidthGBs float64
	// StencilLoadCost scales how strongly the stencil basic block's
	// loads-per-MAC ratio depresses its throughput below peak.
	StencilLoadCost float64
	// TransformGBsPerCore is the streaming rate of the sparse kernel's
	// data-layout transformations (strided copies: well below peak
	// bandwidth).
	TransformGBsPerCore float64
	// SparseAxpyEfficiency is the fraction of peak the pointer-shifting
	// axpy kernel sustains on its non-zero work for long channel vectors.
	SparseAxpyEfficiency float64
}

// Paper returns the model calibrated to the paper's testbed (Intel Xeon
// E5-2650, 16 cores, 41.6 GFlops/core peak, OpenBLAS).
func Paper() Machine {
	return Machine{
		Cores:                16,
		PeakGFlopsPerCore:    41.6,
		HalfPerfAIT:          60,
		SharedBandwidthGBs:   25.6,
		StencilLoadCost:      3.0,
		TransformGBsPerCore:  3.0,
		SparseAxpyEfficiency: 0.55,
	}
}

// EffPerCore returns the roofline throughput (GFlops/core) of a kernel
// whose per-core arithmetic intensity is aitPerCore flops/element.
func (m Machine) EffPerCore(aitPerCore float64) float64 {
	if aitPerCore <= 0 {
		return 0
	}
	return m.PeakGFlopsPerCore * aitPerCore / (aitPerCore + m.HalfPerfAIT)
}

// shareBandwidth rescales a per-core rate when p cores' aggregate
// streaming demand (4 bytes per element at the given AIT) exceeds the
// shared bandwidth.
func (m Machine) shareBandwidth(gflopsPerCore, aitPerCore float64, p int) float64 {
	if aitPerCore <= 0 || gflopsPerCore <= 0 {
		return 0
	}
	demand := float64(p) * gflopsPerCore * 4 / aitPerCore // GB/s
	if demand <= m.SharedBandwidthGBs {
		return gflopsPerCore
	}
	return gflopsPerCore * m.SharedBandwidthGBs / demand
}

// unfoldSeconds returns the time of the (single-threaded) unfolding step
// of one phase: the unfolded matrix is written and read once and the
// original input read once, at the strided-copy streaming rate. In the
// baseline frameworks im2col runs serially per training input — only the
// GEMM itself is parallel — which is the Amdahl term that flattens
// Parallel-GEMM's end-to-end scaling (Fig. 9).
func (m Machine) unfoldSeconds(s conv.Spec) float64 {
	bytes := 4 * (2*float64(s.UnfoldedSize()) + float64(s.InputSize()))
	return bytes / (m.TransformGBsPerCore * 1e9)
}

// mmAITPerCore is the per-core AIT of the row-partitioned MM alone (§3.2):
// each core reads its row slices of A and C but ALL of B.
func mmAITPerCore(mm ait.MM, p int) float64 {
	fp := float64(p)
	flops := 2 * float64(mm.M) * float64(mm.N) * float64(mm.K) / fp
	mem := float64(mm.M)*float64(mm.K)/fp + float64(mm.K)*float64(mm.N) + float64(mm.M)*float64(mm.N)/fp
	return flops / mem
}

// parallelGEMMPhaseSeconds returns the modeled time of one phase of
// Unfold+Parallel-GEMM on p cores: serial unfold plus row-partitioned MM.
func (m Machine) parallelGEMMPhaseSeconds(s conv.Spec, phase ait.Phase, p int) float64 {
	mm := ait.MMOf(s, phase)
	a := mmAITPerCore(mm, p)
	rate := m.shareBandwidth(m.EffPerCore(a), a, p)
	return m.unfoldSeconds(s) + float64(mm.Flops())/(rate*1e9*float64(p))
}

// ParallelGEMM predicts GFlops/core for Unfold+Parallel-GEMM on p cores
// for the given phase — the Fig. 3a series.
func (m Machine) ParallelGEMM(s conv.Spec, phase ait.Phase, p int) float64 {
	t := m.parallelGEMMPhaseSeconds(s, phase, p)
	return float64(ait.MMOf(s, phase).Flops()) / t / 1e9 / float64(p)
}

// ParallelGEMMTraining predicts the GFlops/core of the full training step
// (the three MMs of FP, gradient and delta-weight back to back, as Fig. 3a
// times them): total flops over summed per-phase times.
func (m Machine) ParallelGEMMTraining(s conv.Spec, p int) float64 {
	return m.trainingAggregate(s, p, m.ParallelGEMM)
}

// GEMMInParallel predicts GFlops/core for GEMM-in-Parallel on p cores:
// each core runs the entire phase (unfold + single-threaded GEMM) on its
// own training inputs, so per-core time — and AIT — is the single-core
// value regardless of p (§4.1); only shared-bandwidth contention degrades
// it.
func (m Machine) GEMMInParallel(s conv.Spec, phase ait.Phase, p int) float64 {
	t := m.parallelGEMMPhaseSeconds(s, phase, 1)
	rate := float64(ait.MMOf(s, phase).Flops()) / t / 1e9
	// Aggregate contention is charged at the phase's overall AIT
	// (flops over unfold + MM traffic).
	mm := ait.MMOf(s, phase)
	traffic := 2*float64(s.UnfoldedSize()) + float64(s.InputSize()) +
		float64(mm.M)*float64(mm.K) + float64(mm.K)*float64(mm.N) + float64(mm.M)*float64(mm.N)
	a := float64(mm.Flops()) / traffic
	return m.shareBandwidth(rate, a, p)
}

// GEMMInParallelTraining aggregates the three phases like
// ParallelGEMMTraining.
func (m Machine) GEMMInParallelTraining(s conv.Spec, p int) float64 {
	return m.trainingAggregate(s, p, m.GEMMInParallel)
}

func (m Machine) trainingAggregate(s conv.Spec, p int, rate func(conv.Spec, ait.Phase, int) float64) float64 {
	phases := []ait.Phase{ait.FP, ait.BPInput, ait.BPWeights}
	totalFlops := 0.0
	totalTime := 0.0
	for _, ph := range phases {
		f := float64(ait.MMOf(s, ph).Flops())
		r := rate(s, ph, p)
		if r <= 0 {
			return 0
		}
		totalFlops += f
		totalTime += f / (r * 1e9 * float64(p))
	}
	return totalFlops / totalTime / 1e9 / float64(p)
}

// PackedGEMM predicts GFlops/core for the prepacked-operand engine
// (unfold-packed-gemm) on p cores. The engine runs the weight-consuming
// GEMMs in the orientation that makes the constant weight matrix the
// packable operand, so per §3.2 accounting each core reads only its row
// slice of the VARYING operand (the unfolded image or transposed error)
// plus the packed weights — no operand the size of the unfolded matrix is
// read in full per core — and the O(Nf·taps) pack itself is charged once
// per packAmortBatch images instead of per image. BP-dW has no constant
// operand and keeps the Parallel-GEMM rate.
func (m Machine) PackedGEMM(s conv.Spec, phase ait.Phase, p int) float64 {
	if phase == ait.BPWeights {
		return m.ParallelGEMM(s, phase, p)
	}
	// Nominal images sharing one weight pack: a pack survives a whole
	// batch (and across steps until the optimizer writes the weights).
	const packAmortBatch = 8
	mm := ait.MMOf(s, phase)
	fp := float64(p)
	flops := 2 * float64(mm.M) * float64(mm.N) * float64(mm.K)
	taps := float64(s.GroupNc() * s.Fy * s.Fx)
	nf := float64(s.Nf)
	wElems := nf * taps
	pix := flops / (2 * wElems)
	memPerCore := pix*(taps+nf)/fp + wElems*(1+2/(packAmortBatch*fp))
	a := (flops / fp) / memPerCore
	rate := m.shareBandwidth(m.EffPerCore(a), a, p)
	t := m.unfoldSeconds(s) + flops/(rate*1e9*fp)
	return flops / t / 1e9 / fp
}

// Stencil predicts GFlops/core for the Stencil-Kernel (FP) on p cores:
// throughput is peak discounted by the generated basic block's
// loads-per-MAC (register/L1 traffic), with shared bandwidth charged only
// at the convolution's intrinsic AIT (the stencil streams I and O once).
func (m Machine) Stencil(s conv.Spec, p int) float64 {
	plan := stencil.ChoosePlan(s)
	rate := m.PeakGFlopsPerCore / (1 + m.StencilLoadCost*plan.LoadsPerMAC)
	return m.shareBandwidth(rate, ait.Intrinsic(s), p)
}

// SparseGoodput predicts the Sparse-Kernel's BP goodput in GFlops/core on
// p cores at the given EO sparsity (Fig. 4e): useful flops divided by
// layout-transform time plus non-zero work time.
func (m Machine) SparseGoodput(s conv.Spec, sparsity float64, p int) float64 {
	if sparsity < 0 {
		sparsity = 0
	}
	if sparsity > 1 {
		sparsity = 1
	}
	// Useful flops of one BP pass (EI + dW: both Eq. 3 and Eq. 4 scale
	// with nnz), per core.
	denseFlops := 2 * float64(s.FlopsFP()) // EI + dW
	useful := denseFlops * (1 - sparsity) / float64(p)
	// The layout transforms are paid regardless of sparsity; like the
	// non-zero work they divide across cores (each core handles different
	// images).
	tTransform := sparseTransformBytes(s) / float64(p) / (m.TransformGBsPerCore * 1e9)
	// Pointer shifting merges the kx and c loops: each non-zero drives
	// axpys of length Fx·Nc, not Nc.
	workRate := m.PeakGFlopsPerCore * m.SparseAxpyEfficiency * channelEfficiency(s.Fx*s.Nc)
	tWork := useful / (workRate * 1e9)
	total := tTransform + tWork
	if total <= 0 {
		return 0
	}
	goodput := useful / total / 1e9
	// Aggregate streaming still shares the socket bandwidth.
	return m.shareBandwidth(goodput, ait.Intrinsic(s), p)
}

// sparseTransformBytes is the traffic of the Sparse-Kernel's layout
// transforms for one image, paid regardless of sparsity: EO is streamed
// once (one CT-CSR compression serves both Eq. 3 and Eq. 4), W, EI, I and
// dW once each.
func sparseTransformBytes(s conv.Spec) float64 {
	return 4 * float64(s.OutputSize()+2*s.WeightSize()+2*s.InputSize())
}

// channelEfficiency models how much of the axpy rate survives for short
// vectors (per-non-zero loop overhead amortizes over the n contiguous
// values one axpy covers).
func channelEfficiency(n int) float64 {
	return float64(n) / (float64(n) + 4)
}

// BlockedConvFP predicts GFlops/core for the channel-blocked direct FP
// engine on p cores (GEMM-in-Parallel schedule: each core runs whole
// images). The layout removes the unfold entirely — the micro-kernel
// panels exist in the weight layout and the input is read in place — so
// traffic per image is the input re-read once per output-feature block,
// plus the output and weights once. The only transform cost left is the
// NCHW boundary conversion of I and O (absent in an end-to-end blocked
// net, charged here to keep the model honest for a single layer).
func (m Machine) BlockedConvFP(s conv.Spec, p int) float64 {
	flops := float64(s.FlopsFP())
	fBlocks := float64((s.Nf + 7) / 8)
	mem := float64(s.InputSize())*fBlocks + float64(s.OutputSize()) + float64(s.WeightSize())
	a := flops / mem
	rate := m.shareBandwidth(m.EffPerCore(a), a, p)
	if rate <= 0 {
		return 0
	}
	convertBytes := 4 * float64(2*s.InputSize()+2*s.OutputSize())
	t := convertBytes/(m.TransformGBsPerCore*1e9) + flops/(rate*1e9)
	return flops / t / 1e9
}

// SparseWeightFP predicts the sparse-weight engine's FP goodput in
// GFlops/core on p cores at the given weight sparsity: useful flops over
// compression time plus non-zero work time, the FP dual of SparseGoodput.
// Compression streams W once per tensor.Ver and survives a whole batch,
// so it is amortized like the packed engine's weight packs.
func (m Machine) SparseWeightFP(s conv.Spec, wSparsity float64, p int) float64 {
	if wSparsity < 0 {
		wSparsity = 0
	}
	if wSparsity > 1 {
		wSparsity = 1
	}
	useful := float64(s.FlopsFP()) * (1 - wSparsity)
	// Weights are read and the CSR plan written once per version, shared
	// across compressAmort images of the batch.
	const compressAmort = 8
	compressBytes := 4 * 2 * float64(s.WeightSize())
	tCompress := compressBytes / (m.TransformGBsPerCore * 1e9 * compressAmort)
	// Each surviving tap is a row-long axpy: the saxpy rate discounted for
	// short output rows (per-tap setup amortizes over OutX) and for the
	// 1-load-1-store-per-MAC balance of axpy versus the 8-wide dot kernels.
	rowEff := float64(s.OutX()) / (float64(s.OutX()) + 8)
	workRate := m.PeakGFlopsPerCore * m.SparseAxpyEfficiency * rowEff * 0.5
	tWork := useful / (workRate * 1e9)
	total := tCompress + tWork
	if total <= 0 {
		return 0
	}
	goodput := useful / total / 1e9
	return m.shareBandwidth(goodput, ait.Intrinsic(s), p)
}

// UnfoldGEMMBP predicts the dense baseline's BP throughput (GFlops/core,
// GEMM-in-Parallel schedule) used as the Fig. 4f denominator: its time is
// sparsity-independent, so its goodput is throughput × (1 − sparsity)
// (Eq. 10).
func (m Machine) UnfoldGEMMBP(s conv.Spec, p int) float64 {
	fEI := float64(ait.MMOf(s, ait.BPInput).Flops())
	fDW := float64(ait.MMOf(s, ait.BPWeights).Flops())
	rEI := m.GEMMInParallel(s, ait.BPInput, p)
	rDW := m.GEMMInParallel(s, ait.BPWeights, p)
	if rEI <= 0 || rDW <= 0 {
		return 0
	}
	t := fEI/(rEI*1e9) + fDW/(rDW*1e9)
	return (fEI + fDW) / t / 1e9
}

// SparseSpeedup predicts Fig. 4f: Sparse-Kernel BP time over the dense
// GEMM-in-Parallel BP time at the given sparsity, on p cores.
func (m Machine) SparseSpeedup(s conv.Spec, sparsity float64, p int) float64 {
	denseFlops := 2 * float64(s.FlopsFP())
	denseRate := m.UnfoldGEMMBP(s, p) * float64(p) * 1e9
	if denseRate <= 0 {
		return 0
	}
	tDense := denseFlops / denseRate
	goodput := m.SparseGoodput(s, sparsity, p) * float64(p) * 1e9
	useful := denseFlops * (1 - sparsity)
	var tSparse float64
	if useful <= 0 {
		// Fully sparse: only the transforms remain.
		tSparse = sparseTransformBytes(s) / (m.TransformGBsPerCore * 1e9 * float64(p))
	} else {
		tSparse = useful / goodput
	}
	if tSparse <= 0 {
		return 0
	}
	return tDense / tSparse
}
