package obs

import (
	"sort"
	"strings"
	"testing"

	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/metrics"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/tensor"
	"spgcnn/internal/trace"
)

const fanoutNet = `
name: "fanout"
input { channels: 1 height: 12 width: 12 }
layer { name: "conv0" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "conv1" type: "conv" features: 4 kernel: 3 stride: 1 }
layer { name: "relu1" type: "relu" }
layer { name: "fc0" type: "fc" outputs: 4 }
`

// attachAll attaches a metrics registry, a full-mode trace emitter and an
// observatory over the net's conv layers to ctx.
func attachAll(ctx *exec.Ctx, net *nn.Network, batch int) (*metrics.Registry, *trace.Recorder, *Observatory) {
	reg := metrics.NewRegistry()
	metrics.Bind(ctx, reg)
	rec := trace.New(trace.Options{Mode: trace.Full})
	trace.Attach(rec, ctx, 0)
	o := New(Options{Workers: ctx.Workers()})
	for _, c := range net.ConvLayers() {
		o.RegisterLayer(c.Name(), c.Spec())
	}
	o.SetBatch(batch)
	ctx.Probe().AddSink(o)
	return reg, rec, o
}

// TestOneEmissionEverySinkAgrees: training emits one layer event per layer
// call, glue layers included, each conv event naming the strategy that ran;
// the registry, the trace capture and the probe count the same calls; the
// observatory keeps rows for the conv layers only; and attaching all three
// sinks adds no allocation to a step.
func TestOneEmissionEverySinkAgrees(t *testing.T) {
	def, err := netdef.Parse(fanoutNet)
	if err != nil {
		t.Fatal(err)
	}
	const batch, steps = 4, 3
	ctx := exec.New(2)
	pl := plan.New(plan.Options{})
	net, err := netdef.Build(def, netdef.BuildOptions{Ctx: ctx, Seed: 1, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	reg, rec, o := attachAll(ctx, net, batch)
	tr := nn.NewTrainer(net, 0.01, batch)
	for s := 0; s < steps; s++ {
		tr.Step(stepDS{n: batch * steps}, []int{4 * s, 4*s + 1, 4*s + 2, 4*s + 3}, 0.01)
	}

	want := map[string]bool{}
	for _, l := range net.Layers() {
		fp, bp := "layer/"+l.Name()+"/fp", "layer/"+l.Name()+"/bp"
		switch l := l.(type) {
		case *nn.Conv:
			fpSel, bpSel, _ := l.Selections()
			fp += "/" + fpSel.Chosen.Strategy().Name
			bp += "/" + bpSel.Chosen.Strategy().Name
		case *nn.FC:
			fp += "/gemm-in-parallel"
			bp += "/gemm-in-parallel"
		}
		want[fp], want[bp] = true, true
	}
	probe := map[string]int64{}
	for name, sp := range ctx.Probe().Spans() {
		if strings.HasPrefix(name, "layer/") {
			probe[name] = sp.Calls
		}
	}
	traced := map[string]int64{}
	for _, ev := range rec.Events() {
		if ev.Cat == "layer" {
			traced[ev.Name]++
		}
	}
	if len(probe) != len(want) {
		t.Fatalf("layer spans %v, want one fp and one bp per layer: %v", probe, want)
	}
	for name := range want {
		regSpan, _ := reg.Span(name)
		if probe[name] != steps || traced[name] != steps || int64(regSpan.Calls) != steps {
			t.Errorf("%s: probe %d, trace %d, registry %d calls; want %d each",
				name, probe[name], traced[name], regSpan.Calls, steps)
		}
	}

	var rows []string
	for _, r := range o.Report().Rows {
		rows = append(rows, r.Layer+"/"+r.Phase)
	}
	sort.Strings(rows)
	if got := strings.Join(rows, " "); got != "conv0/bp conv0/fp conv1/bp conv1/fp" {
		t.Fatalf("observatory rows %q, want the conv layers' only", got)
	}

	// A pinned net's step allocates the same with the three sinks attached
	// as with none.
	stepAllocs := func(attach bool) float64 {
		ctx := exec.New(1)
		gip, _ := core.StrategyByName("gemm-in-parallel", 1)
		net, err := netdef.Build(def, netdef.BuildOptions{Ctx: ctx, Seed: 1, FixedStrategy: &gip})
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			attachAll(ctx, net, batch)
		}
		var ins, dlogits []*tensor.Tensor
		for i := 0; i < batch; i++ {
			in := tensor.New(net.InDims()...)
			stepDS{}.Image(i, in)
			ins = append(ins, in)
			dlogits = append(dlogits, tensor.New(net.OutDims()...))
			dlogits[i].Data[i%4] = 1
		}
		step := func() {
			net.Forward(ins)
			net.Backward(dlogits, ins)
		}
		step() // plans
		return testing.AllocsPerRun(100, step)
	}
	if bare, all := stepAllocs(false), stepAllocs(true); all != bare {
		t.Fatalf("a step allocates %v times with the sinks attached, %v without", all, bare)
	}
}
