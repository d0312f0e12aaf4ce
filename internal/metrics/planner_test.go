package metrics

import (
	"strings"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func nopStrategy(name string) core.Strategy {
	return core.Strategy{
		Name: name,
		Gen: engine.Generator{
			Name: name,
			New:  func(s conv.Spec) engine.Kernel { return nopKernel{spec: s, name: name} },
		},
	}
}

type nopKernel struct {
	spec conv.Spec
	name string
}

func (k nopKernel) Name() string    { return k.name }
func (k nopKernel) Spec() conv.Spec { return k.spec }

func (k nopKernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor)      {}
func (k nopKernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {}
func (k nopKernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
}

// TestBindPlannerExportsCounters drives one cold and one warm selection
// through a bound planner and checks the gauges land in the Prometheus
// rendering with live values.
func TestBindPlannerExportsCounters(t *testing.T) {
	p := plan.New(plan.Options{
		FP: func(int) []core.Strategy { return []core.Strategy{nopStrategy("a"), nopStrategy("b")} },
		BP: func(int) []core.Strategy { return []core.Strategy{nopStrategy("a")} },
	})
	r := NewRegistry()
	BindPlanner(p, r)

	spec := conv.Square(6, 2, 1, 3, 1)
	rg := rng.New(1)
	ins := []*tensor.Tensor{conv.RandInput(rg, spec)}
	w := conv.RandWeights(rg, spec)
	p.PlanFP(spec, exec.New(1), ins, w, core.TuneOptions{})
	p.PlanFP(spec, exec.New(1), ins, w, core.TuneOptions{})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"spg_planner_cache_hits_total 1",
		"spg_planner_cache_misses_total 1",
		"spg_planner_measurements_total 1",
		"spg_planner_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
