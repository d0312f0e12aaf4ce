package nn

import (
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// Dataset is the minimal data source the trainer consumes. Implementations
// live in internal/data (deterministic synthetic sets standing in for
// MNIST, CIFAR-10 and ImageNet — see DESIGN.md §2).
type Dataset interface {
	// Len is the number of examples.
	Len() int
	// Image writes example i into dst (shaped like the network input).
	Image(i int, dst *tensor.Tensor)
	// Label returns example i's class.
	Label(i int) int
	// Classes is the number of classes.
	Classes() int
}

// EpochStats reports one training epoch.
type EpochStats struct {
	Epoch        int
	Loss         float64
	Accuracy     float64
	Images       int
	Seconds      float64
	ImagesPerSec float64
	// ConvSparsity maps conv layer name to the mean sparsity of its
	// output-error gradients during the epoch — the Fig. 3b series.
	ConvSparsity map[string]float64
	// ConvGFlops is the dense convolution work rate achieved this epoch
	// (FP + both BP computations of every conv layer, counted dense).
	ConvGFlops float64
	// ConvGoodputGFlops is the USEFUL convolution work rate (Eq. 9): FP
	// counted fully, BP discounted by each layer's measured gradient
	// sparsity. The gap to ConvGFlops is what a dense BP engine wastes
	// multiplying zeros — the quantity the Sparse-Kernel recovers.
	ConvGoodputGFlops float64
}

// Account closes the epoch's record — the one Eq. 9 account every trainer
// fills its statistics through. s.Images and s.Seconds are the work done and
// the wall time it took, lossSum and correct the epoch's tallies, nets the
// replicas of the one model that trained (a plain Trainer passes its single
// network). It sets the means and rates (0, never NaN or Inf, when no image
// trained or no time passed), takes each conv layer's gradient sparsity
// averaged across the replicas, and charges every image FP in full and both
// BP computations dense for ConvGFlops, discounted by the layer's sparsity
// for ConvGoodputGFlops. It returns the dense conv flops of one image — what
// an example the epoch skipped would have cost.
func (s *EpochStats) Account(lossSum float64, correct int, nets ...*Network) (convFlopsPerImage float64) {
	images := float64(s.Images)
	s.Loss = safeDiv(lossSum, images)
	s.Accuracy = safeDiv(float64(correct), images)
	s.ImagesPerSec = safeDiv(images, s.Seconds)
	s.ConvSparsity = map[string]float64{}
	counts := map[string]int{}
	for _, net := range nets {
		for _, c := range net.ConvLayers() {
			if sp, ok := c.TakeSparsity(); ok {
				s.ConvSparsity[c.Name()] += sp
				counts[c.Name()]++
			}
		}
	}
	for name, n := range counts {
		s.ConvSparsity[name] /= float64(n)
	}
	var useful float64
	for _, c := range nets[0].ConvLayers() {
		spec := c.Spec()
		fp := float64(spec.FlopsFP())
		bp := float64(spec.FlopsBPInput() + spec.FlopsBPWeights())
		convFlopsPerImage += fp + bp
		useful += fp + bp*(1-s.ConvSparsity[c.Name()])
	}
	s.ConvGFlops = safeDiv(convFlopsPerImage*images, s.Seconds) / 1e9
	s.ConvGoodputGFlops = safeDiv(useful*images, s.Seconds) / 1e9
	return convFlopsPerImage
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Trainer runs minibatch SGD.
type Trainer struct {
	Net       *Network
	LR        float32
	BatchSize int
	// Loss is the loss head (zero value is ready to use).
	Loss SoftmaxXent
	// OnStep, when set, runs before every minibatch of TrainEpoch with the
	// global step number (1-based, monotonic across epochs). Observability
	// taps use it to stamp trace events with the live step.
	OnStep func(step int64)

	epoch   int
	steps   int64
	inputs  []*tensor.Tensor
	dlogits []*tensor.Tensor
}

// NewTrainer builds a trainer with the given hyper-parameters.
func NewTrainer(net *Network, lr float32, batchSize int) *Trainer {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Trainer{Net: net, LR: lr, BatchSize: batchSize}
}

// forward fills the batch ds[idx], runs it through the network and the loss
// head, and leaves dLoss/dlogits of every image in t.dlogits[:len(idx)].
func (t *Trainer) forward(ds Dataset, idx []int) (loss float64, correct int) {
	for len(t.inputs) < len(idx) {
		t.inputs = append(t.inputs, tensor.New(t.Net.InDims()...))
		t.dlogits = append(t.dlogits, tensor.New(t.Net.OutDims()...))
	}
	ins := t.inputs[:len(idx)]
	for i, ex := range idx {
		ds.Image(ex, ins[i])
	}
	logits := t.Net.Forward(ins)
	for i, ex := range idx {
		l, ok := t.Loss.Loss(logits[i], ds.Label(ex), t.dlogits[i])
		loss += l
		if ok {
			correct++
		}
	}
	return loss, correct
}

// Step is the one SGD step: fill the minibatch ds[idx], forward, loss,
// backward, and apply the gradients at lr/len(idx). It returns the batch's
// summed loss and its correctly classified count. TrainEpoch loops over it
// with the trainer's LR; a data-parallel replica calls it on its shard with
// the share-rescaled rate.
func (t *Trainer) Step(ds Dataset, idx []int, lr float32) (loss float64, correct int) {
	loss, correct = t.forward(ds, idx)
	n := len(idx)
	t.Net.Backward(t.dlogits[:n], t.inputs[:n])
	t.Net.ApplyGrads(lr, n)
	return loss, correct
}

// TrainEpoch performs one pass over the dataset in shuffled minibatches
// (the tail batch included) and returns the epoch statistics.
func (t *Trainer) TrainEpoch(ds Dataset, r *rng.RNG) EpochStats {
	t.epoch++
	order := r.Perm(ds.Len())
	var lossSum float64
	correct := 0
	start := t.Net.probe.Now()
	for lo := 0; lo < len(order); lo += t.BatchSize {
		t.steps++
		if t.OnStep != nil {
			t.OnStep(t.steps)
		}
		l, c := t.Step(ds, order[lo:min(lo+t.BatchSize, len(order))], t.LR)
		lossSum += l
		correct += c
	}
	elapsed := (t.Net.probe.Now() - start).Seconds()

	stats := EpochStats{Epoch: t.epoch, Images: len(order), Seconds: elapsed}
	stats.Account(lossSum, correct, t.Net)
	return stats
}

// Evaluate computes loss and accuracy without updating weights.
func (t *Trainer) Evaluate(ds Dataset) (loss, accuracy float64) {
	idx := make([]int, 0, t.BatchSize)
	var lossSum float64
	correct := 0
	for lo := 0; lo < ds.Len(); lo += t.BatchSize {
		idx = idx[:0]
		for i := lo; i < min(lo+t.BatchSize, ds.Len()); i++ {
			idx = append(idx, i)
		}
		l, c := t.forward(ds, idx)
		lossSum += l
		correct += c
	}
	n := float64(ds.Len())
	return safeDiv(lossSum, n), safeDiv(float64(correct), n)
}
