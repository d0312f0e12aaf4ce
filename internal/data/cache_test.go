package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"spgcnn/internal/tensor"
)

// hashPixels is FNV-64a over the little-endian float32 bits of examples
// 0..Len-1 in order, each written into one reused tensor by fill.
func hashPixels(d *Synthetic, fill func(i int, dst *tensor.Tensor)) uint64 {
	h := fnv.New64a()
	img := tensor.New(d.Dims()...)
	buf := make([]byte, 4*len(img.Data))
	for i := 0; i < d.Len(); i++ {
		fill(i, img)
		for j, v := range img.Data {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(v))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// TestPixelsPinned pins every pixel of the datasets the training
// workloads and the figures use to the hashes of the code that rendered
// each example on every access: the first access (render and publish), a
// second access (copy of what was published) and a direct render (the
// path above cacheCap) must all read the same bits. ImageNet100(1400) is
// 17.2 MB, above the cap, so it renders on every access.
func TestPixelsPinned(t *testing.T) {
	cases := []struct {
		d      *Synthetic
		want   uint64
		cached bool
	}{
		{MNIST(128), 0x0d8fa998392bb277, true},
		{CIFAR(128), 0xd2806cfa7ca32c07, true},
		// Shaped like a train_zoo dataset: every zoo net reads 3×32×32.
		{New(Config{Name: "zoo", Examples: 128, Classes: 10, Channels: 3, Height: 32, Width: 32, Seed: 1}), 0x8cf883e7f47a91c9, true},
		{ImageNet100(1400), 0x14ce88acbf67b6ef, false},
	}
	for _, tc := range cases {
		d := tc.d
		name := fmt.Sprintf("%s(%d)", d.Name(), d.Len())
		if got := d.slab != nil; got != tc.cached {
			t.Fatalf("%s: kept = %v, want %v (cap %d bytes)", name, got, tc.cached, cacheCap)
		}
		passes := []struct {
			what string
			fill func(int, *tensor.Tensor)
		}{
			{"first access", d.Image},
			{"second access", d.Image},
			{"render", d.render},
		}
		for _, p := range passes {
			if got := hashPixels(d, p.fill); got != tc.want {
				t.Errorf("%s %s: hash %#016x, want %#016x", name, p.what, got, tc.want)
			}
		}
	}
}

// TestConcurrentFillsMatchSerial has four goroutines fill the same and
// overlapping indices of one fresh dataset in different orders, as
// data-parallel replicas do on a shared set. Every image each one reads
// must be bit-identical to a serial render.
func TestConcurrentFillsMatchSerial(t *testing.T) {
	const n, workers = 24, 4
	d := CIFAR(n)
	want := make([]*tensor.Tensor, n)
	for i := range want {
		want[i] = tensor.New(d.Dims()...)
		d.render(i, want[i])
	}
	orders := [workers][]int{}
	for i := 0; i < n; i++ {
		orders[0] = append(orders[0], i)       // forward
		orders[1] = append(orders[1], n-1-i)   // backward
		orders[2] = append(orders[2], (7*i)%n) // strided
		orders[3] = append(orders[3], i/2)     // each index twice, first half only
	}
	got := [workers][]*tensor.Tensor{}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range orders {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for _, i := range orders[w] {
				img := tensor.New(d.Dims()...)
				d.Image(i, img)
				got[w] = append(got[w], img)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, order := range orders {
		for k, i := range order {
			if !tensor.Identical(got[w][k], want[i]) {
				t.Fatalf("goroutine %d, read %d (example %d): differs from a serial render", w, k, i)
			}
		}
	}
	for i := range want {
		if !d.ready[i].Load() {
			t.Fatalf("example %d read but not kept", i)
		}
	}
}

func TestWarmImageAllocatesNothing(t *testing.T) {
	d := CIFAR(4)
	img := tensor.New(d.Dims()...)
	d.Image(1, img)
	if allocs := testing.AllocsPerRun(100, func() { d.Image(1, img) }); allocs != 0 {
		t.Fatalf("warm Image allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkImage reports one CIFAR example's fill: cold renders and
// publishes it (the first epoch, and every access above cacheCap pays the
// render), warm copies the kept bits.
func BenchmarkImage(b *testing.B) {
	const n = 128
	b.Run("cold", func(b *testing.B) {
		var d *Synthetic
		img := tensor.New(CIFAR(1).Dims()...)
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				b.StopTimer()
				d = CIFAR(n)
				b.StartTimer()
			}
			d.Image(i%n, img)
		}
	})
	b.Run("warm", func(b *testing.B) {
		d := CIFAR(n)
		img := tensor.New(d.Dims()...)
		for i := 0; i < n; i++ {
			d.Image(i, img)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Image(i%n, img)
		}
	})
}
