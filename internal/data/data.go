// Package data provides deterministic synthetic image datasets standing in
// for the paper's MNIST, CIFAR-10 and ImageNet benchmarks (the module is
// offline; see DESIGN.md §2 for the substitution rationale).
//
// Each class has a fixed signature — a few Gaussian blobs with
// class-specific positions and per-channel amplitudes — and each example is
// the signature plus per-example positional jitter and pixel noise. The
// classes are therefore genuinely separable: SGD training reduces loss,
// accuracy climbs above chance, and — the property Fig. 3b depends on —
// ReLU-derivative error gradients genuinely sparsify as the model fits.
//
// Everything is derived from explicit seeds: Image(i) always produces the
// same pixels, so experiments are exactly reproducible. Because of that a
// dataset of at most cacheCap bytes keeps each example after rendering it
// once, and every later Image(i) is a copy of the same bits.
package data

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// cacheCap bounds the rendered pixels one dataset keeps: a set larger
// than this (Fig. 3b's full-scale CIFAR and ImageNet100) renders example
// i on every access instead.
const cacheCap = 16 << 20

// Synthetic is a deterministic labeled image dataset. Image is safe for
// concurrent calls.
type Synthetic struct {
	name    string
	n       int
	classes int
	c, h, w int
	seed    uint64
	blobs   [][]blob // per class
	noise   float32

	// slab holds example i's pixels at [i*c*h*w, (i+1)*c*h*w) once
	// ready[i] is set; both are nil above cacheCap. mu serializes the
	// publishes, so two first accesses of i write the slab once.
	slab  []float32
	ready []atomic.Bool
	mu    sync.Mutex
}

type blob struct {
	cy, cx float64   // center (fraction of image)
	sigma  float64   // radius (fraction of image)
	amp    []float32 // per-channel amplitude
}

// Config describes a synthetic dataset.
type Config struct {
	Name     string
	Examples int
	Classes  int
	Channels int
	Height   int
	Width    int
	Seed     uint64
	// BlobsPerClass is the number of signature blobs (default 3).
	BlobsPerClass int
	// Noise is the additive pixel-noise stddev (default 0.25).
	Noise float32
}

// New builds a synthetic dataset from the config.
func New(cfg Config) *Synthetic {
	if cfg.Examples < 1 || cfg.Classes < 1 || cfg.Channels < 1 || cfg.Height < 1 || cfg.Width < 1 {
		panic(fmt.Sprintf("data: invalid config %+v", cfg))
	}
	if cfg.BlobsPerClass <= 0 {
		cfg.BlobsPerClass = 3
	}
	if cfg.Noise <= 0 {
		cfg.Noise = 0.25
	}
	d := &Synthetic{
		name:    cfg.Name,
		n:       cfg.Examples,
		classes: cfg.Classes,
		c:       cfg.Channels,
		h:       cfg.Height,
		w:       cfg.Width,
		seed:    cfg.Seed,
		noise:   cfg.Noise,
	}
	d.blobs = make([][]blob, cfg.Classes)
	for k := range d.blobs {
		r := rng.New(cfg.Seed ^ (0x517cc1b727220a95 * uint64(k+1)))
		for b := 0; b < cfg.BlobsPerClass; b++ {
			bl := blob{
				cy:    0.15 + 0.7*r.Float64(),
				cx:    0.15 + 0.7*r.Float64(),
				sigma: 0.06 + 0.10*r.Float64(),
				amp:   make([]float32, cfg.Channels),
			}
			for c := range bl.amp {
				bl.amp[c] = 0.5 + 1.5*r.Float32()
				if r.Float64() < 0.3 {
					bl.amp[c] = -bl.amp[c]
				}
			}
			d.blobs[k] = append(d.blobs[k], bl)
		}
	}
	if size := cfg.Examples * cfg.Channels * cfg.Height * cfg.Width; size <= cacheCap/4 {
		d.slab = make([]float32, size)
		d.ready = make([]atomic.Bool, cfg.Examples)
	}
	return d
}

// Name returns the dataset label.
func (d *Synthetic) Name() string { return d.name }

// Len implements nn.Dataset.
func (d *Synthetic) Len() int { return d.n }

// Classes implements nn.Dataset.
func (d *Synthetic) Classes() int { return d.classes }

// Dims returns the per-image [C][H][W] shape.
func (d *Synthetic) Dims() []int { return []int{d.c, d.h, d.w} }

// Label implements nn.Dataset: classes cycle through the index space so
// every epoch is balanced.
func (d *Synthetic) Label(i int) int { return i % d.classes }

// Image implements nn.Dataset: writes example i into dst, which must be
// shaped [C][H][W]. The first access renders it; later ones copy the
// bits the first published. Above cacheCap, or for i outside [0, Len),
// every access renders.
func (d *Synthetic) Image(i int, dst *tensor.Tensor) {
	if dst.Rank() != 3 || dst.Dim(0) != d.c || dst.Dim(1) != d.h || dst.Dim(2) != d.w {
		panic(fmt.Sprintf("data: Image dst shape %v, want [%d %d %d]", dst.Dims, d.c, d.h, d.w))
	}
	if uint(i) >= uint(len(d.ready)) {
		d.render(i, dst)
		return
	}
	size := d.c * d.h * d.w
	kept := d.slab[i*size : (i+1)*size]
	if d.ready[i].Load() {
		copy(dst.Data, kept)
		return
	}
	d.render(i, dst)
	d.mu.Lock()
	if !d.ready[i].Load() {
		copy(kept, dst.Data)
		d.ready[i].Store(true)
	}
	d.mu.Unlock()
}

// render draws example i into dst: the class's blobs, jittered per
// example, then per-pixel noise. Each blob's Gaussian weight is computed
// once per pixel and scaled by every channel's amplitude; each pixel
// still receives its blob contributions in blob order.
func (d *Synthetic) render(i int, dst *tensor.Tensor) {
	label := d.Label(i)
	r := rng.New(d.seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
	// Per-example jitter: shift each blob by up to ±7% of the image.
	jy := (r.Float64() - 0.5) * 0.14
	jx := (r.Float64() - 0.5) * 0.14
	dst.Zero()
	fh, fw := float64(d.h), float64(d.w)
	plane := d.h * d.w
	for _, bl := range d.blobs[label] {
		cy := (bl.cy + jy) * fh
		cx := (bl.cx + jx) * fw
		sig := bl.sigma * math.Sqrt(fh*fw)
		inv := 1 / (2 * sig * sig)
		// Render within 3 sigma.
		ylo, yhi := clamp(int(cy-3*sig), 0, d.h), clamp(int(cy+3*sig)+1, 0, d.h)
		xlo, xhi := clamp(int(cx-3*sig), 0, d.w), clamp(int(cx+3*sig)+1, 0, d.w)
		for y := ylo; y < yhi; y++ {
			dy := float64(y) - cy
			for x := xlo; x < xhi; x++ {
				dx := float64(x) - cx
				g := float32(math.Exp(-(dy*dy + dx*dx) * inv))
				at := y*d.w + x
				for c, amp := range bl.amp {
					dst.Data[c*plane+at] += amp * g
				}
			}
		}
	}
	// Additive noise.
	for j := range dst.Data {
		dst.Data[j] += d.noise * float32(r.NormFloat64())
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// The benchmark datasets, with geometries from the paper's §5.1 and
// Table 2 (CIFAR images arrive pre-padded to 36×36, matching Table 2's
// note that layer-0 Nx reflects image padding).

// MNIST returns the MNIST-like set: n 1×28×28 grayscale images, 10 classes.
func MNIST(n int) *Synthetic {
	return New(Config{Name: "MNIST", Examples: n, Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 0x5151})
}

// CIFAR returns the CIFAR-10-like set: n 3×36×36 RGB images (pre-padded
// from 32×32 per Table 2), 10 classes.
func CIFAR(n int) *Synthetic {
	return New(Config{Name: "CIFAR", Examples: n, Classes: 10, Channels: 3, Height: 36, Width: 36, Seed: 0xC1FA})
}

// ImageNet100 returns the ImageNet-100-like set used by Fig. 3b, at
// reduced spatial scale (3×32×32, 100 classes) so pure-Go training is
// feasible — the sparsity-trajectory property is scale-independent.
func ImageNet100(n int) *Synthetic {
	return New(Config{Name: "ImageNet100", Examples: n, Classes: 100, Channels: 3, Height: 32, Width: 32, Seed: 0x1A6E})
}
