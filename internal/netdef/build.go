package netdef

import (
	"fmt"
	"slices"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
)

// BuildOptions controls how a parsed description becomes a runnable
// network.
type BuildOptions struct {
	// Workers is the core count every layer schedules over (default 1).
	// Ignored when Ctx is set.
	Workers int
	// Ctx is the execution context shared by every layer — one arena for
	// all scratch, one probe for all instrumentation. Nil builds a fresh
	// context with Workers workers.
	Ctx *exec.Ctx
	// FixedStrategy pins every convolution to one strategy for both phases
	// (how the baseline configurations of Fig. 9 are constructed): the
	// layers ask core.FixedPlanner instead of Planner. Nil selects spg-CNN's
	// auto-tuning scheduler.
	FixedStrategy *core.Strategy
	// Planner owns strategy selection for auto-tuned conv layers. Nil
	// builds one fresh plan.Planner per Build call, so same-geometry
	// layers within the network tune once and share the verdict. Pass an
	// explicit planner to share verdicts more widely — across networks,
	// data-parallel replicas, or processes (via its plan cache file).
	Planner core.Planner
	// Seed seeds weight initialization.
	Seed uint64
	// Inference builds a forward-only network (the serving path): conv
	// layers plan one strategy per batch-size bucket instead of carrying
	// the training scheduler, dropout layers run as identity, and the
	// returned network allocates no gradient storage (Backward panics).
	// FixedStrategy still takes precedence.
	Inference bool
	// InferBuckets are the batch-size buckets inference conv layers plan
	// for (sorted internally). Empty plans each observed batch size on
	// first sight. Ignored unless Inference is set.
	InferBuckets []int
}

// MaxElems caps the size of what a description declares: every integer
// field, and the float32 elements of the input, of each layer's per-image
// output and of its parameters, summed over the network. A description
// past it is an error, so a hostile shape cannot make Build (or the first
// batch) allocate without bound; Build itself allocates each parameter
// tensor twice (weights and gradient). The committed descriptions declare
// under 0.4 M elements in all.
const MaxElems = 1 << 23

// Build constructs the network, inferring each layer's input shape from
// the previous layer's output. A relu layer that directly follows a conv
// becomes that conv's fused ReLU (nn.Conv.FuseReLU), unless a from: names
// the conv, whose pre-ReLU output then has a second reader; a from: naming
// such a relu taps the fused conv's output, which is the relu's. Every
// other relu is an nn.ReLU layer.
func Build(def *NetDef, opts BuildOptions) (*nn.Network, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = exec.New(opts.Workers)
	}
	workers := ctx.Workers()
	planner := opts.Planner
	if st := opts.FixedStrategy; st != nil {
		planner = core.FixedPlanner(*st, *st)
	} else if planner == nil {
		planner = plan.New(plan.Options{})
	}
	r := rng.New(opts.Seed ^ 0xB111D)
	dims := []int{def.Input.Channels, def.Input.Height, def.Input.Width}
	declared, ok := within(0, dims...)
	if !ok {
		return nil, fmt.Errorf("netdef: input %v declares more than %d elements", dims, MaxElems)
	}
	// Residual wiring: every layer an `add` node names via from= gets a
	// hidden nn.Tap appended right after it; the add node becomes the
	// nn.Add summing the tapped activations back in.
	tapWanted := map[string]bool{}
	for _, l := range def.Layers {
		if l.Type == "add" {
			if from := l.StringField("from", ""); from != "" {
				tapWanted[from] = true
			}
		}
	}
	taps := map[string]*nn.Tap{}
	var layers []nn.Layer
	var last *nn.Conv // the conv the previous layer built, while a relu may still fuse onto it
	for i, l := range def.Layers {
		name := nameOr(l, i)
		l.Name = name // every error below, MustField's too, names the layer as built
		if err := checkFields(l, name); err != nil {
			return nil, err
		}
		var params []int // parameter elements the layer declares, beyond its output
		prev := last
		last = nil
		switch l.Type {
		case "conv":
			if len(dims) != 3 {
				return nil, fmt.Errorf("netdef: layer %q: conv needs a [C][H][W] input, have %v", name, dims)
			}
			nf, err := l.MustField("features")
			if err != nil {
				return nil, err
			}
			k, err := l.MustField("kernel")
			if err != nil {
				return nil, err
			}
			stride := l.Field("stride", 1)
			pad := l.Field("pad", 0)
			s := conv.Spec{
				Nx: dims[2], Ny: dims[1], Nc: dims[0],
				Nf: nf, Fx: k, Fy: k, Sx: stride, Sy: stride,
				Px: pad, Py: pad,
				Dx: l.Field("dilation", 1), Dy: l.Field("dilation", 1),
				Groups: l.Field("groups", 1),
			}.Canon()
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("netdef: layer %q: %w", name, err)
			}
			if st := opts.FixedStrategy; st != nil && !st.Supports(s) {
				return nil, fmt.Errorf("netdef: layer %q: fixed strategy %q does not support spec %v",
					name, st.Name, s)
			}
			params = s.WeightDims()
			if _, ok := within(0, params...); !ok {
				return nil, fmt.Errorf("netdef: layer %q: weights %v declare more than %d elements", name, params, MaxElems)
			}
			if _, ok := within(0, s.Nf, s.OutY(), s.OutX()); !ok {
				return nil, fmt.Errorf("netdef: layer %q: output declares more than %d elements", name, MaxElems)
			}
			var cl *nn.Conv
			if opts.Inference && opts.FixedStrategy == nil {
				cl = nn.NewConvInferCtx(name, s, planner, opts.InferBuckets, ctx, r)
			} else {
				cl = nn.NewConvCtx(name, s, planner, ctx, r)
			}
			layers = append(layers, cl)
			dims = cl.OutDims()
			if !tapWanted[name] {
				last = cl
			}
		case "relu":
			if prev != nil {
				prev.FuseReLU()
				break
			}
			layers = append(layers, nn.NewReLU(name, dims, workers))
		case "maxpool", "avgpool":
			size, stride, err := poolWindow(l, dims)
			if err != nil {
				return nil, err
			}
			var pl nn.Layer
			if l.Type == "maxpool" {
				pl = nn.NewMaxPool(name, dims, size, stride, workers)
			} else {
				pl = nn.NewAvgPool(name, dims, size, stride, workers)
			}
			layers = append(layers, pl)
			dims = pl.OutDims()
		case "dropout":
			rate := l.FloatField("rate", 0.5)
			if rate < 0 || rate >= 1 {
				return nil, fmt.Errorf("netdef: layer %q: dropout rate %v outside [0, 1)", name, rate)
			}
			dl := nn.NewDropout(name, dims, rate, workers, r.Split())
			if opts.Inference {
				dl.SetTraining(false)
			}
			layers = append(layers, dl)
		case "fc":
			out, err := l.MustField("outputs")
			if err != nil {
				return nil, err
			}
			if out < 1 {
				return nil, fmt.Errorf("netdef: layer %q: fc outputs %d must be positive", name, out)
			}
			params = []int{elems(dims), out}
			if _, ok := within(0, params...); !ok {
				return nil, fmt.Errorf("netdef: layer %q: weights %v declare more than %d elements", name, params, MaxElems)
			}
			fl := nn.NewFCCtx(name, dims, out, ctx, r)
			layers = append(layers, fl)
			dims = fl.OutDims()
		case "add":
			from := l.StringField("from", "")
			if from == "" {
				return nil, fmt.Errorf("netdef: layer %q: add needs from: \"<layer>\"", name)
			}
			tap, ok := taps[from]
			if !ok {
				return nil, fmt.Errorf("netdef: layer %q: add from %q does not name an earlier layer", name, from)
			}
			if elems(dims) != elems(tap.OutDims()) {
				return nil, fmt.Errorf("netdef: layer %q: add input %v does not match %q output %v",
					name, dims, from, tap.OutDims())
			}
			layers = append(layers, nn.NewAdd(name, dims, tap))
		default:
			return nil, fmt.Errorf("netdef: layer %q has unknown type %q", name, l.Type)
		}
		if declared, ok = within(declared, dims...); ok && params != nil {
			declared, ok = within(declared, params...)
		}
		if !ok {
			return nil, fmt.Errorf("netdef: layer %q: the network declares more than %d elements", name, MaxElems)
		}
		if tapWanted[name] {
			tap := nn.NewTap(name+".tap", dims)
			layers = append(layers, tap)
			taps[name] = tap
		}
	}
	net := nn.NewNetwork(ctx, layers...)
	if opts.Inference {
		net.SetInference()
	}
	return net, nil
}

// poolWindow reads a pooling layer's window and stride (default: the
// window) and checks them against its [C][H][W] input.
func poolWindow(l LayerDef, dims []int) (size, stride int, err error) {
	if len(dims) != 3 {
		return 0, 0, fmt.Errorf("netdef: layer %q: %s needs a [C][H][W] input, have %v", l.Name, l.Type, dims)
	}
	size, err = l.MustField("kernel")
	if err != nil {
		return 0, 0, err
	}
	stride = l.Field("stride", size)
	switch {
	case size < 1 || stride < 1:
		return 0, 0, fmt.Errorf("netdef: layer %q: %s kernel %d and stride %d must be positive", l.Name, l.Type, size, stride)
	case size > dims[1] || size > dims[2]:
		return 0, 0, fmt.Errorf("netdef: layer %q: %s window %d exceeds its %dx%d input", l.Name, l.Type, size, dims[1], dims[2])
	}
	return size, stride, nil
}

// within adds the element count of dims to n and reports whether the sum
// stays within MaxElems, without overflowing on the way.
func within(n int, dims ...int) (int, bool) {
	p := 1
	for _, d := range dims {
		if d < 0 || (d > 0 && p > MaxElems/d) {
			return n, false
		}
		p *= d
	}
	return n + p, n+p <= MaxElems
}

// fieldKinds lists, per layer type, every field Build reads and the kind
// of value it takes: 'i' an integer, 'f' a float (an integer is
// promoted), 's' a quoted string.
var fieldKinds = map[string]map[string]byte{
	"conv":    {"features": 'i', "kernel": 'i', "stride": 'i', "pad": 'i', "dilation": 'i', "groups": 'i'},
	"relu":    {},
	"maxpool": {"kernel": 'i', "stride": 'i'},
	"avgpool": {"kernel": 'i', "stride": 'i'},
	"dropout": {"rate": 'f'},
	"fc":      {"outputs": 'i'},
	"add":     {"from": 's'},
}

// checkFields reports the first field, by name, that l's type does not
// read or that holds the wrong kind of value: a misspelt field or a
// decimal stride would otherwise build a layer with the default. An
// unknown type passes; Build's type switch reports it.
func checkFields(l LayerDef, name string) error {
	kinds, ok := fieldKinds[l.Type]
	if !ok {
		return nil
	}
	var fields []string
	for f := range l.Fields {
		fields = append(fields, f)
	}
	for f := range l.Floats {
		fields = append(fields, f)
	}
	for f := range l.Strings {
		fields = append(fields, f)
	}
	slices.Sort(fields)
	for _, f := range fields {
		_, isInt := l.Fields[f]
		_, isFloat := l.Floats[f]
		switch kind, known := kinds[f]; {
		case !known:
			return fmt.Errorf("netdef: layer %q (%s) has no field %q", name, l.Type, f)
		case kind == 'i' && isFloat:
			return fmt.Errorf("netdef: layer %q (%s): field %q takes an integer, not the decimal %v", name, l.Type, f, l.Floats[f])
		case isInt && (l.Fields[f] > MaxElems || l.Fields[f] < -MaxElems):
			return fmt.Errorf("netdef: layer %q (%s): field %q = %d is beyond the size cap %d", name, l.Type, f, l.Fields[f], MaxElems)
		case kind == 's' && (isInt || isFloat):
			return fmt.Errorf("netdef: layer %q (%s): field %q takes a quoted string", name, l.Type, f)
		case kind != 's' && !isInt && !isFloat:
			return fmt.Errorf("netdef: layer %q (%s): field %q takes a number", name, l.Type, f)
		}
	}
	return nil
}

func nameOr(l LayerDef, i int) string {
	if l.Name != "" {
		return l.Name
	}
	return fmt.Sprintf("%s%d", l.Type, i)
}

func elems(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// The built-in runnable benchmark networks. Layer-0 conv geometries come
// from the paper's Table 2; pooling bridges the published conv layers.

// MNISTNet is the LeNet-style MNIST network: Table 2's 28,20,1,5,1 conv.
const MNISTNet = `
name: "mnist"
input { channels: 1 height: 28 width: 28 }
layer { name: "conv0" type: "conv" features: 20 kernel: 5 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "fc0" type: "fc" outputs: 10 }
`

// CIFARNet is the CIFAR-10 network with Table 2's two conv layers
// (36,64,3,5,1 and 8,64,64,5,1); a 4×4 pool bridges the 32×32 conv0
// output to conv1's 8×8 input.
const CIFARNet = `
name: "cifar10"
input { channels: 3 height: 36 width: 36 }
layer { name: "conv0" type: "conv" features: 64 kernel: 5 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 4 stride: 4 }
layer { name: "conv1" type: "conv" features: 64 kernel: 5 stride: 1 }
layer { name: "relu1" type: "relu" }
layer { name: "fc0" type: "fc" outputs: 10 }
`

// ImageNet100Net is the reduced-scale network used for the Fig. 3b
// sparsity trajectories (see DESIGN.md §2 on scale substitution).
const ImageNet100Net = `
name: "imagenet100"
input { channels: 3 height: 32 width: 32 }
layer { name: "conv0" type: "conv" features: 32 kernel: 5 stride: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "conv1" type: "conv" features: 64 kernel: 3 stride: 1 }
layer { name: "relu1" type: "relu" }
layer { name: "pool1" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "fc0" type: "fc" outputs: 100 }
`

// The workload zoo: small CIFAR-scale topologies exercising the corners
// of the generalized convolution space — depthwise-separable (grouped),
// dilated, bottleneck (1×1-heavy) and residual (add nodes). Each trains
// end-to-end under the planner; spg-plan -explore reports their per-layer
// design-space placement.

// ZooDepthwiseNet is a MobileNet-style depthwise-separable stack: each
// depthwise conv has groups == channels (GroupNc 1), each pointwise conv
// is a 1×1 dense mix.
const ZooDepthwiseNet = `
name: "zoo-depthwise"
input { channels: 3 height: 32 width: 32 }
layer { name: "conv0" type: "conv" features: 16 kernel: 3 pad: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "dw1" type: "conv" features: 16 kernel: 3 pad: 1 groups: 16 }
layer { name: "relu1" type: "relu" }
layer { name: "pw1" type: "conv" features: 32 kernel: 1 }
layer { name: "relu2" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 4 stride: 4 }
layer { name: "dw2" type: "conv" features: 32 kernel: 3 pad: 1 groups: 32 }
layer { name: "relu3" type: "relu" }
layer { name: "pw2" type: "conv" features: 64 kernel: 1 }
layer { name: "relu4" type: "relu" }
layer { name: "pool1" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "fc0" type: "fc" outputs: 10 }
`

// ZooDilatedNet grows the receptive field with dilation instead of
// pooling: each conv keeps the 32×32 extent via pad = dilation (3×3
// kernels), doubling the dilation per stage.
const ZooDilatedNet = `
name: "zoo-dilated"
input { channels: 3 height: 32 width: 32 }
layer { name: "conv0" type: "conv" features: 16 kernel: 3 pad: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "conv1" type: "conv" features: 16 kernel: 3 pad: 2 dilation: 2 }
layer { name: "relu1" type: "relu" }
layer { name: "conv2" type: "conv" features: 32 kernel: 3 pad: 4 dilation: 4 }
layer { name: "relu2" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 4 stride: 4 }
layer { name: "fc0" type: "fc" outputs: 10 }
`

// ZooBottleneckNet is a 1×1-heavy bottleneck stack: reduce, convolve at
// reduced width, expand — the low-AIT 1×1 geometries that stress the
// GEMM-shaped candidates.
const ZooBottleneckNet = `
name: "zoo-bottleneck"
input { channels: 3 height: 32 width: 32 }
layer { name: "conv0" type: "conv" features: 32 kernel: 3 pad: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 2 stride: 2 }
layer { name: "reduce1" type: "conv" features: 16 kernel: 1 }
layer { name: "relu1" type: "relu" }
layer { name: "conv1" type: "conv" features: 16 kernel: 3 pad: 1 }
layer { name: "relu2" type: "relu" }
layer { name: "expand1" type: "conv" features: 64 kernel: 1 }
layer { name: "relu3" type: "relu" }
layer { name: "pool1" type: "maxpool" kernel: 4 stride: 4 }
layer { name: "fc0" type: "fc" outputs: 10 }
`

// ZooResidualNet is a residual CIFAR variant: two padded 3×3 convs whose
// output is summed with the block input via an add node (from: "relu0").
const ZooResidualNet = `
name: "zoo-residual"
input { channels: 3 height: 32 width: 32 }
layer { name: "conv0" type: "conv" features: 16 kernel: 3 pad: 1 }
layer { name: "relu0" type: "relu" }
layer { name: "conv1" type: "conv" features: 16 kernel: 3 pad: 1 }
layer { name: "relu1" type: "relu" }
layer { name: "conv2" type: "conv" features: 16 kernel: 3 pad: 1 }
layer { name: "add1" type: "add" from: "relu0" }
layer { name: "relu2" type: "relu" }
layer { name: "pool0" type: "maxpool" kernel: 4 stride: 4 }
layer { name: "fc0" type: "fc" outputs: 10 }
`

// ZooNet names one workload-zoo description.
type ZooNet struct {
	Name string
	Src  string
}

// Zoo returns the workload-zoo networks in their canonical order.
func Zoo() []ZooNet {
	return []ZooNet{
		{Name: "zoo-depthwise", Src: ZooDepthwiseNet},
		{Name: "zoo-dilated", Src: ZooDilatedNet},
		{Name: "zoo-bottleneck", Src: ZooBottleneckNet},
		{Name: "zoo-residual", Src: ZooResidualNet},
	}
}

// MustBuild parses and builds a built-in description; it panics on error
// (the built-ins are compile-time constants).
func MustBuild(src string, opts BuildOptions) *nn.Network {
	def, err := Parse(src)
	if err != nil {
		panic(err)
	}
	net, err := Build(def, opts)
	if err != nil {
		panic(err)
	}
	return net
}
