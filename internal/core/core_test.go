package core

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func sampleBatch(r *rng.RNG, s conv.Spec, n int, sparsity float64) (ins, eos []*tensor.Tensor) {
	for i := 0; i < n; i++ {
		ins = append(ins, conv.RandInput(r, s))
		eos = append(eos, conv.RandOutputError(r, s, sparsity))
	}
	return
}

func TestStrategySetsMatchPaper(t *testing.T) {
	fp := FPStrategies(4)
	if len(fp) != 6 || fp[0].Name != "parallel-gemm" || fp[1].Name != "gemm-in-parallel" ||
		fp[2].Name != "stencil" || fp[3].Name != "gemm-packed" ||
		fp[4].Name != "blocked" || fp[5].Name != "sparse-weight" {
		t.Fatalf("FP candidates = %v", names(fp))
	}
	bp := BPStrategies(4)
	if len(bp) != 4 || bp[2].Name != "sparse" || bp[3].Name != "gemm-packed" {
		t.Fatalf("BP candidates = %v", names(bp))
	}
	// The paper's three keep their positions; internally-parallel GEMM
	// strategies are not batch-parallel.
	if fp[0].BatchParallel || !fp[1].BatchParallel || !fp[2].BatchParallel || fp[3].BatchParallel {
		t.Fatal("batch-parallel flags wrong")
	}
	// Only the blocked engine computes in NCHW8; everything else reports
	// the canonical layout.
	for _, st := range append(fp, bp...) {
		want := tensor.NCHW
		if st.Name == "blocked" {
			want = tensor.NCHW8
		}
		if st.Layout != want {
			t.Fatalf("%s: layout %v, want %v", st.Name, st.Layout, want)
		}
	}
}

func names(sts []Strategy) []string {
	var out []string
	for _, s := range sts {
		out = append(out, s.Name)
	}
	return out
}

func TestStrategyByName(t *testing.T) {
	for _, name := range []string{"parallel-gemm", "gemm-in-parallel", "stencil", "sparse", ReferenceStrategy().Name} {
		st, ok := StrategyByName(name, 4)
		if !ok || st.Name != name {
			t.Fatalf("StrategyByName(%q) failed", name)
		}
	}
	if _, ok := StrategyByName("nope", 4); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestAllExecsAgree(t *testing.T) {
	// Every strategy must compute identical results on the same batch —
	// the scheduler's freedom to pick any of them depends on it.
	r := rng.New(1)
	s := conv.Square(10, 6, 3, 3, 1)
	w := conv.RandWeights(r, s)
	ins, eos := sampleBatch(r, s, 5, 0.8)

	type result struct {
		outs []*tensor.Tensor
		eis  []*tensor.Tensor
		dw   *tensor.Tensor
	}
	var results []result
	var nms []string
	for _, st := range append(FPStrategies(3), BPStrategies(3)...) {
		e := NewExecCtx(st, s, exec.New(3))
		res := result{dw: conv.NewWeights(s)}
		for range ins {
			res.outs = append(res.outs, conv.NewOutput(s))
			res.eis = append(res.eis, conv.NewInput(s))
		}
		e.Forward(res.outs, ins, w)
		e.BackwardInput(res.eis, eos, w)
		e.BackwardWeights(res.dw, eos, ins)
		results = append(results, res)
		nms = append(nms, e.Name())
	}
	base := results[0]
	for i, res := range results[1:] {
		for j := range ins {
			if !tensor.AlmostEqual(base.outs[j], res.outs[j], 1e-3) {
				t.Fatalf("%s FP differs from %s", nms[i+1], nms[0])
			}
			if !tensor.AlmostEqual(base.eis[j], res.eis[j], 1e-3) {
				t.Fatalf("%s BP-EI differs from %s", nms[i+1], nms[0])
			}
		}
		if !tensor.AlmostEqual(base.dw, res.dw, 1e-3) {
			t.Fatalf("%s BP-dW differs from %s", nms[i+1], nms[0])
		}
	}
}

func TestExecBackwardMatchesThePair(t *testing.T) {
	// Exec.Backward is BackwardInput + BackwardWeights behind one seam, for
	// every BP candidate: bit-identical on the fallback path, and on the
	// fused one too (sparse keeps the pair's per-sample EI and its static dW
	// partition). With nil eis the weight gradient is unchanged and the
	// reference strategy — no fused entry — still runs.
	r := rng.New(5)
	s := conv.Spec{Nx: 13, Ny: 9, Nc: 3, Nf: 5, Fx: 3, Fy: 2, Sx: 2, Sy: 1}
	w := conv.RandWeights(r, s)
	for _, workers := range []int{1, 3} {
		c := exec.New(workers)
		for _, st := range append(BPStrategies(workers), ReferenceStrategy()) {
			for _, sparsity := range []float64{0, 0.94, 1} {
				ins, eos := sampleBatch(r, s, 5, sparsity)
				e := NewExecCtx(st, s, c)
				if got, want := e.fused != nil, st.Name == "sparse"; got != want {
					t.Fatalf("%s: fused seam present = %v, want %v", st.Name, got, want)
				}
				wantEIs := make([]*tensor.Tensor, len(eos))
				gotEIs := make([]*tensor.Tensor, len(eos))
				for i := range eos {
					wantEIs[i], gotEIs[i] = conv.NewInput(s), conv.NewInput(s)
					gotEIs[i].FillUniform(r, 5, 6) // must be overwritten
				}
				wantDW, gotDW := conv.NewWeights(s), conv.NewWeights(s)
				e.BackwardInput(wantEIs, eos, w)
				e.BackwardWeights(wantDW, eos, ins)

				e.Backward(gotEIs, gotDW, eos, ins, w)
				for i := range gotEIs {
					if !tensor.Identical(gotEIs[i], wantEIs[i]) {
						t.Fatalf("%s p=%d sparsity %v: Backward EI %d differs from BackwardInput", st.Name, workers, sparsity, i)
					}
				}
				if !tensor.Identical(gotDW, wantDW) {
					t.Fatalf("%s p=%d sparsity %v: Backward dW differs from BackwardWeights", st.Name, workers, sparsity)
				}
				gotDW.FillUniform(r, 5, 6)
				e.Backward(nil, gotDW, eos, ins, w)
				if !tensor.Identical(gotDW, wantDW) {
					t.Fatalf("%s p=%d sparsity %v: dW changes when eis is nil", st.Name, workers, sparsity)
				}
			}
		}
	}
}

func TestChooseBPWithoutInputGrad(t *testing.T) {
	// NoInputGrad measures (and must run) every candidate with nil eis.
	r := rng.New(6)
	s := conv.Square(10, 4, 3, 3, 1)
	ins, eos := sampleBatch(r, s, 2, 0.9)
	w := conv.RandWeights(r, s)
	sel := ChooseBP(BPStrategies(2), s, exec.New(2), eos, ins, w, TuneOptions{Reps: 1, NoInputGrad: true})
	if sel.Chosen == nil || len(sel.Timings) != len(BPStrategies(2)) {
		t.Fatalf("selection incomplete: %+v", sel)
	}
}

func TestChooseFPPicksMeasuredMinimum(t *testing.T) {
	r := rng.New(2)
	s := conv.Square(12, 8, 3, 3, 1)
	w := conv.RandWeights(r, s)
	ins, _ := sampleBatch(r, s, 2, 0)
	ctx := exec.New(2)
	sel := ChooseFP(FPStrategies(2), s, ctx, ins, w, TuneOptions{Reps: 2})
	if sel.Chosen == nil {
		t.Fatal("no choice made")
	}
	// The verdict lands in the shared probe.
	choices := ctx.Probe().Choices()
	if len(choices) != 1 || choices[0].Phase != "fp" ||
		choices[0].Strategy != sel.Best().Strategy.Name {
		t.Fatalf("probe choices = %+v", choices)
	}
	if _, ok := ctx.Probe().SpanStats("tune/fp/stencil"); !ok {
		t.Fatal("tuning spans not recorded in probe")
	}
	if want := len(FPStrategies(2)); len(sel.Timings) != want {
		t.Fatalf("timings = %d entries, want %d", len(sel.Timings), want)
	}
	best := sel.Best()
	if sel.Chosen.Strategy().Name != best.Strategy.Name {
		t.Fatalf("chosen %q but fastest measured was %q",
			sel.Chosen.Strategy().Name, best.Strategy.Name)
	}
	for _, tm := range sel.Timings {
		if tm.Seconds <= 0 {
			t.Fatalf("non-positive timing for %s", tm.Strategy.Name)
		}
	}
}

func TestChooseBPPicksMeasuredMinimum(t *testing.T) {
	r := rng.New(3)
	s := conv.Square(12, 8, 3, 3, 1)
	w := conv.RandWeights(r, s)
	ins, eos := sampleBatch(r, s, 2, 0.9)
	sel := ChooseBP(BPStrategies(2), s, exec.New(2), eos, ins, w, TuneOptions{Reps: 2})
	if sel.Chosen == nil || len(sel.Timings) != 4 {
		t.Fatal("ChooseBP incomplete")
	}
	if sel.Chosen.Strategy().Name != sel.Best().Strategy.Name {
		t.Fatal("ChooseBP did not pick measured minimum")
	}
}

func TestAutoConvTunesAndExecutes(t *testing.T) {
	r := rng.New(4)
	s := conv.Square(10, 4, 2, 3, 1)
	a := NewAutoConv(s, exec.New(2), measureAll{fp: FPStrategies(2), bp: BPStrategies(2)})
	w := conv.RandWeights(r, s)
	ins, eos := sampleBatch(r, s, 4, 0.85)
	outs := make([]*tensor.Tensor, len(ins))
	eis := make([]*tensor.Tensor, len(ins))
	for i := range ins {
		outs[i] = conv.NewOutput(s)
		eis[i] = conv.NewInput(s)
	}
	dw := conv.NewWeights(s)
	a.Forward(outs, ins, w)
	a.Backward(eis, dw, eos, ins, w)

	if a.FPSelection().Chosen == nil || a.BPSelection().Chosen == nil {
		t.Fatal("AutoConv did not tune")
	}
	// Results must match reference.
	want := conv.NewOutput(s)
	conv.ForwardRef(s, want, ins[0], w)
	if !tensor.AlmostEqual(outs[0], want, 1e-3) {
		t.Fatal("AutoConv forward result wrong")
	}
	wantEI := conv.NewInput(s)
	conv.BackwardInputRef(s, wantEI, eos[0], w)
	if !tensor.AlmostEqual(eis[0], wantEI, 1e-3) {
		t.Fatal("AutoConv backward result wrong")
	}
}

func TestAutoConvRechecksBP(t *testing.T) {
	r := rng.New(5)
	s := conv.Square(8, 4, 2, 3, 1)
	a := NewAutoConv(s, exec.New(2), measureAll{fp: FPStrategies(2), bp: BPStrategies(2)})
	w := conv.RandWeights(r, s)
	ins, eos := sampleBatch(r, s, 2, 0.5)
	eis := []*tensor.Tensor{conv.NewInput(s), conv.NewInput(s)}
	dw := conv.NewWeights(s)
	a.Backward(eis, dw, eos, ins, w)
	first := a.BPSelection()
	recheck(a)
	second := a.BPSelection()
	if len(second.Timings) == 0 {
		t.Fatal("re-tune produced no timings")
	}
	// The tables are distinct objects (a fresh measurement ran).
	if &first.Timings[0] == &second.Timings[0] {
		t.Fatal("EpochEnd did not re-measure")
	}
}

func TestEpochEndBeforeTuneIsNoop(t *testing.T) {
	s := conv.Square(8, 4, 2, 3, 1)
	a := NewAutoConv(s, exec.New(2), FixedPlanner(ReferenceStrategy(), ReferenceStrategy()))
	recheck(a) // must not panic with no gradients retained
}

func TestSelectionBest(t *testing.T) {
	sel := Selection{Timings: []Timing{
		{Strategy: Strategy{Name: "a"}, Seconds: 3},
		{Strategy: Strategy{Name: "b"}, Seconds: 1},
		{Strategy: Strategy{Name: "c"}, Seconds: 2},
	}}
	if sel.Best().Strategy.Name != "b" {
		t.Fatal("Best did not return minimum")
	}
}
