// Package explore renders the paper's §3 design-space analysis for a whole
// network before any measurement: every conv layer characterized (AIT,
// unfold degradation, Fig. 1 region), its stencil register tile enumerated,
// and the planner's analytical strategy ranking printed — with the
// capability seam visible as candidates that decline the layer's
// generalized spec. The per-convolution analysis spg-plan always offered,
// automated over a parsed netdef.
package explore

import (
	"fmt"
	"io"
	"strings"

	"spgcnn/internal/ait"
	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/machine"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/stencil"
)

// Options parameterizes the report. The zero value models the paper's
// machine: 16 cores, 85% BP error sparsity, dense weights.
type Options struct {
	// Workers is the core count the strategy ranking models (default 16,
	// the paper's Xeon).
	Workers int
	// Sparsity is the assumed BP error-gradient sparsity driving the
	// sparse-column region placement and the sparse BP candidate (default
	// 0.85; pass a negative value for an explicitly dense analysis).
	Sparsity float64
	// WSparsity is the assumed FP weight sparsity (default 0, dense).
	WSparsity float64
	// Machine is the model the ranking runs on (default machine.Paper()).
	Machine *machine.Machine
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 16
	}
	if o.Sparsity == 0 {
		o.Sparsity = 0.85
	} else if o.Sparsity < 0 {
		o.Sparsity = 0
	}
	if o.Machine == nil {
		m := machine.Paper()
		o.Machine = &m
	}
	return o
}

// regionLabels names the six Fig. 1 cells with their axis coordinates.
var regionLabels = [6]string{
	"Region 0 (high AIT, dense)",
	"Region 1 (high AIT, sparse)",
	"Region 2 (moderate AIT, dense)",
	"Region 3 (moderate AIT, sparse)",
	"Region 4 (low AIT, dense)",
	"Region 5 (low AIT, sparse)",
}

// Report writes the design-space report for one parsed network. Everything
// printed is a pure function of the netdef and the options (the machine
// model defaults to the paper's), so the rendering is golden-testable.
func Report(w io.Writer, def *netdef.NetDef, opts Options) error {
	opts = opts.withDefaults()
	// Build propagates shapes layer to layer and runs the same spec
	// validation training would; one worker keeps it cheap — the ranking
	// models opts.Workers cores, no kernel ever runs.
	net, err := netdef.Build(def, netdef.BuildOptions{Workers: 1})
	if err != nil {
		return err
	}
	convs := net.ConvLayers()
	name := def.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "net %s  input %dx%dx%d  (%d conv layers of %d total)\n",
		name, def.Input.Channels, def.Input.Height, def.Input.Width,
		len(convs), len(net.Layers()))
	fmt.Fprintf(w, "modeled at p=%d, %.0f%% BP error sparsity, %.0f%% weight sparsity\n",
		opts.Workers, opts.Sparsity*100, opts.WSparsity*100)

	var totalFlops int64
	for _, c := range convs {
		totalFlops += c.Spec().FlopsFP()
		reportLayer(w, c, opts)
	}

	// The whole-net Fig. 1 placement: each conv appears in its dense-phase
	// cell and, when the assumed sparsity moves it, its sparse-phase cell.
	fmt.Fprintf(w, "\nFig. 1 placement (dense FP / BP at %.0f%% sparsity):\n", opts.Sparsity*100)
	var placed [6][]string
	for _, c := range convs {
		s := c.Spec()
		dense := ait.Classify(s, 0)
		placed[int(dense)] = append(placed[int(dense)], c.Name())
		if sparse := ait.Classify(s, opts.Sparsity); sparse != dense {
			placed[int(sparse)] = append(placed[int(sparse)], c.Name())
		}
	}
	for i, label := range regionLabels {
		members := "-"
		if len(placed[i]) > 0 {
			members = strings.Join(placed[i], ", ")
		}
		fmt.Fprintf(w, "  %-31s %s\n", label, members)
	}
	fmt.Fprintf(w, "total conv flops (FP, per image)  %d\n", totalFlops)
	return nil
}

func reportLayer(w io.Writer, c *nn.Conv, opts Options) {
	s := c.Spec()
	a := ait.Analyze(s)
	dense := ait.Classify(s, 0)
	sparse := ait.Classify(s, opts.Sparsity)
	fmt.Fprintf(w, "\nlayer %s  %v\n", c.Name(), s)
	fmt.Fprintf(w, "  flops (FP)      %d\n", s.FlopsFP())
	fmt.Fprintf(w, "  intrinsic AIT   %.1f   unfold+GEMM AIT %.1f  (r = %.3f)\n",
		a.IntrinsicAIT, a.UnfoldAIT, a.Ratio)
	fmt.Fprintf(w, "  region          dense %v, sparse %v\n", dense, sparse)
	fmt.Fprintf(w, "  prescribed      %v\n", sparse.Props().Recommendations)
	fmt.Fprintf(w, "  stencil tile    %v\n", stencil.ChoosePlan(s))
	rankPhase(w, "fp", s, opts.WSparsity, opts, core.FPStrategies(opts.Workers))
	rankPhase(w, "bp", s, opts.Sparsity, opts, core.BPStrategies(opts.Workers))
}

// rankPhase prints one phase's analytical candidate ranking, split by the
// capability seam: strategies whose engines decline the spec never rank —
// exactly the set the planner would refuse to measure.
func rankPhase(w io.Writer, phase string, s conv.Spec, sparsity float64,
	opts Options, cands []core.Strategy) {
	supported := make([]core.Strategy, 0, len(cands))
	var declined []string
	for _, st := range cands {
		if st.Supports(s) {
			supported = append(supported, st)
		} else {
			declined = append(declined, st.Name)
		}
	}
	names := make([]string, len(supported))
	for i, st := range supported {
		names[i] = st.Name
	}
	scores := plan.ModelRank(*opts.Machine, s, phase, sparsity, opts.Workers, names)
	plan.MarkPruned(supported, scores, s, sparsity)
	for i, sc := range scores {
		head := "  "
		if i == 0 {
			head = phase
		}
		note := ""
		if !sc.Modeled {
			note = "  (unmodeled)"
		} else if sc.Pruned {
			note = "  (pruned before measurement)"
		}
		fmt.Fprintf(w, "  %-3s %d. %-18s %8.1f%s\n", head, i+1, sc.Strategy, sc.GFlopsPerCore, note)
	}
	if len(declined) > 0 {
		fmt.Fprintf(w, "      declined: %s\n", strings.Join(declined, ", "))
	}
}
