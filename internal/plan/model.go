package plan

import (
	"sort"
	"strings"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/machine"
)

// ModelScore is one candidate's analytical prediction from the model-first
// pass: the §3 AIT characterization pushed through the internal/machine
// roofline, expressed as an effective dense-equivalent GFlops/core rate so
// dense throughput and sparse goodput rank on one axis.
type ModelScore struct {
	Strategy      string  `json:"strategy"`
	GFlopsPerCore float64 `json:"gflops_per_core"`
	// Modeled is false when the strategy has no analytical model (custom
	// candidate sets); unmodeled candidates are never pruned.
	Modeled bool `json:"modeled"`
	// Pruned marks candidates the planner excluded from measurement.
	Pruned bool `json:"pruned,omitempty"`
}

// ModelRank runs the model-first pass for one phase: every named candidate
// scored under m at the given worker count and gradient sparsity, returned
// sorted best-first (unmodeled candidates sort last, in input order).
func ModelRank(m machine.Machine, s conv.Spec, phase string, sparsity float64,
	workers int, names []string) []ModelScore {
	if workers < 1 {
		workers = 1
	}
	scores := make([]ModelScore, 0, len(names))
	for _, name := range names {
		rate, ok := ModelRate(m, s, phase, sparsity, workers, name)
		scores = append(scores, ModelScore{Strategy: name, GFlopsPerCore: rate, Modeled: ok})
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Modeled != scores[j].Modeled {
			return scores[i].Modeled
		}
		return scores[i].GFlopsPerCore > scores[j].GFlopsPerCore
	})
	return scores
}

// ModelRate maps a built-in strategy name onto its machine-model
// prediction for the phase, as a dense-equivalent GFlops/core rate.
// Sparse-Kernel goodput is converted to the dense-flops-equivalent rate
// (goodput / non-zero fraction) so its predicted wall time compares
// against dense candidates — and so predicted wall time is always
// denseFlops / (rate × 1e9 × workers), whatever the strategy. ok is
// false for strategies the machine model does not cover (custom
// candidate sets, phases a strategy cannot run). The drift observatory
// (internal/obs) uses this same rate to turn deployed-strategy span
// times into model-vs-measured agreement ratios.
func ModelRate(m machine.Machine, s conv.Spec, phase string, sparsity float64,
	workers int, name string) (float64, bool) {
	switch name {
	case "parallel-gemm":
		if phase == "fp" {
			return m.ParallelGEMM(s, ait.FP, workers), true
		}
		return bpAggregate(s, workers, func(ph ait.Phase) float64 {
			return m.ParallelGEMM(s, ph, workers)
		}), true
	case "gemm-in-parallel":
		if phase == "fp" {
			return m.GEMMInParallel(s, ait.FP, workers), true
		}
		return bpAggregate(s, workers, func(ph ait.Phase) float64 {
			return m.GEMMInParallel(s, ph, workers)
		}), true
	case "gemm-packed":
		// Prepacked weight operand: the model carries the pack-amortization
		// term (machine.PackedGEMM) so the candidate ranks above
		// parallel-gemm exactly where hoisting the pack pays — many output
		// pixels per weight element — and not on degenerate geometries.
		if phase == "fp" {
			return m.PackedGEMM(s, ait.FP, workers), true
		}
		return bpAggregate(s, workers, func(ph ait.Phase) float64 {
			return m.PackedGEMM(s, ph, workers)
		}), true
	case "stencil":
		if phase == "fp" {
			return m.Stencil(s, workers), true
		}
		return 0, false
	case "blocked":
		// Channel-blocked direct FP: unfold-free micro-kernel panels
		// (machine.BlockedConvFP). FP-only — its BP delegates to the serial
		// GEMM, so as a BP candidate it is never the model's pick.
		if phase == "fp" {
			return m.BlockedConvFP(s, workers), true
		}
		return 0, false
	case "sparse-weight":
		// Weight-density-scaled FP goodput, converted to the dense-
		// equivalent rate exactly like the sparse BP kernel below. For this
		// candidate `sparsity` carries the WEIGHT sparsity (plan passes
		// w.Sparsity() to the FP phase).
		if phase != "fp" {
			return 0, false
		}
		dense := 1 - sparsity
		if dense < 0.01 {
			dense = 0.01
		}
		return m.SparseWeightFP(s, sparsity, workers) / dense, true
	case "sparse":
		if phase != "bp" {
			return 0, false
		}
		dense := 1 - sparsity
		if dense < 0.01 {
			dense = 0.01
		}
		return m.SparseGoodput(s, sparsity, workers) / dense, true
	default:
		return 0, false
	}
}

// bpAggregate combines the two backward GEMM phases (Eq. 3 input-error +
// Eq. 4 delta-weights) into one rate: total flops over summed per-phase
// time, per core — the same aggregation machine.trainingAggregate uses for
// full training steps.
func bpAggregate(s conv.Spec, workers int, rate func(ait.Phase) float64) float64 {
	w := float64(workers)
	fEI := float64(ait.MMOf(s, ait.BPInput).Flops())
	fDW := float64(ait.MMOf(s, ait.BPWeights).Flops())
	rEI, rDW := rate(ait.BPInput), rate(ait.BPWeights)
	if rEI <= 0 || rDW <= 0 {
		return 0
	}
	t := fEI/(rEI*1e9*w) + fDW/(rDW*1e9*w)
	return (fEI + fDW) / t / 1e9 / w
}

// MarkPruned applies the planner's prune policy to scores in place —
// which candidates would be excluded from measurement — without running
// any measurement. sparsity drives the Fig. 1 region
// classification guarding region-recommended candidates (pass 0 for FP).
func MarkPruned(cands []core.Strategy, scores []ModelScore, s conv.Spec, sparsity float64) {
	prune(cands, scores, recommendedNames(s, sparsity))
}

// recommendedNames maps the Fig. 1 region prescription for (s, sparsity)
// onto strategy names. Region-recommended candidates are never pruned:
// the region classification is the paper's own ground truth for which
// techniques matter in that corner of the design space, so the roofline
// model is not allowed to overrule it before measurement.
func recommendedNames(s conv.Spec, sparsity float64) map[string]bool {
	out := make(map[string]bool)
	for _, rec := range ait.Classify(s, sparsity).Props().Recommendations {
		switch {
		case strings.HasPrefix(rec, "Parallel-GEMM"):
			out["parallel-gemm"] = true
		case strings.HasPrefix(rec, "GEMM-in-Parallel"):
			out["gemm-in-parallel"] = true
		case strings.HasPrefix(rec, "Stencil"):
			out["stencil"] = true
		case strings.HasPrefix(rec, "Sparse"):
			out["sparse"] = true
		}
	}
	return out
}

// prune marks clearly-dominated candidates in scores and returns the
// surviving strategies in their ORIGINAL candidate order (ChooseFP/Choose-
// BP break measurement ties by order, so reordering would perturb cold-
// path selections). A modeled candidate is pruned when its predicted rate
// falls below DefaultPruneRatio × the best modeled rate, unless it is the
// model's own top pick, region-recommended, or unmodeled.
func prune(cands []core.Strategy, scores []ModelScore,
	recommended map[string]bool) (survivors []core.Strategy, pruned []string) {
	best := 0.0
	top := ""
	for _, sc := range scores {
		if sc.Modeled && sc.GFlopsPerCore > best {
			best = sc.GFlopsPerCore
			top = sc.Strategy
		}
	}
	dead := make(map[string]bool)
	if best > 0 {
		for i := range scores {
			sc := &scores[i]
			if !sc.Modeled || sc.Strategy == top || recommended[sc.Strategy] {
				continue
			}
			if sc.GFlopsPerCore < DefaultPruneRatio*best {
				sc.Pruned = true
				dead[sc.Strategy] = true
			}
		}
	}
	for _, st := range cands {
		if dead[st.Name] {
			pruned = append(pruned, st.Name)
			continue
		}
		survivors = append(survivors, st)
	}
	if len(survivors) == 0 { // unreachable (top always survives); belt and braces
		return cands, nil
	}
	return survivors, pruned
}
