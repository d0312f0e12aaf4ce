package unfoldgemm

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestConformanceSerial(t *testing.T) {
	enginetest.Run(t, Generator(1), enginetest.Options{Seed: 1})
}

func TestConformanceParallel4(t *testing.T) {
	enginetest.Run(t, Generator(4), enginetest.Options{Seed: 2})
}

func TestConformanceParallel16(t *testing.T) {
	enginetest.Run(t, Generator(16), enginetest.Options{Trials: 8, Seed: 3})
}

func TestDifferentialParallelVsSerial(t *testing.T) {
	enginetest.RunDifferential(t, Generator(4), Generator(1), enginetest.DiffOptions{Seed: 0xD1F1})
}

func TestNames(t *testing.T) {
	s := conv.Square(8, 2, 2, 3, 1)
	if got := New(s, 1).Name(); got != "unfold-gemm(serial)" {
		t.Fatalf("serial name = %q", got)
	}
	if got := New(s, 8).Name(); got != "unfold-parallel-gemm(p=8)" {
		t.Fatalf("parallel name = %q", got)
	}
	if Generator(1).Name != "unfold-gemm" || Generator(2).Name != "unfold-parallel-gemm" {
		t.Fatal("generator names wrong")
	}
	if New(s, 0).Workers() != 1 {
		t.Fatal("workers floor at 1")
	}
}

func TestSerialAndParallelAgree(t *testing.T) {
	r := rng.New(9)
	c := exec.New(1)
	for trial := 0; trial < 10; trial++ {
		s := conv.RandSpec(r, 10)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		eo := conv.RandOutputError(r, s, 0.6)

		serial, parallel := New(s, 1), New(s, 7)

		o1, o2 := conv.NewOutput(s), conv.NewOutput(s)
		serial.ForwardBatch(c, []*tensor.Tensor{o1}, []*tensor.Tensor{in}, w)
		parallel.ForwardBatch(c, []*tensor.Tensor{o2}, []*tensor.Tensor{in}, w)
		if !tensor.AlmostEqual(o1, o2, 1e-4) {
			t.Fatalf("FP serial/parallel disagree for %v", s)
		}

		e1, e2 := conv.NewInput(s), conv.NewInput(s)
		serial.BackwardInputBatch(c, []*tensor.Tensor{e1}, []*tensor.Tensor{eo}, w)
		parallel.BackwardInputBatch(c, []*tensor.Tensor{e2}, []*tensor.Tensor{eo}, w)
		if !tensor.AlmostEqual(e1, e2, 1e-4) {
			t.Fatalf("BP-EI serial/parallel disagree for %v", s)
		}

		d1, d2 := conv.NewWeights(s), conv.NewWeights(s)
		serial.BackwardWeightsBatch(c, d1, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
		parallel.BackwardWeightsBatch(c, d2, []*tensor.Tensor{eo}, []*tensor.Tensor{in})
		if !tensor.AlmostEqual(d1, d2, 1e-4) {
			t.Fatalf("BP-dW serial/parallel disagree for %v", s)
		}
	}
}

func benchForward(b *testing.B, s conv.Spec, workers int) {
	r := rng.New(1)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	outs, ins := []*tensor.Tensor{conv.NewOutput(s)}, []*tensor.Tensor{in}
	k := New(s, workers)
	c := exec.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
	b.ReportMetric(float64(s.FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

func BenchmarkForwardCIFARL0Serial(b *testing.B) {
	benchForward(b, conv.Square(36, 64, 3, 5, 1), 1)
}

func BenchmarkForwardCIFARL1Serial(b *testing.B) {
	benchForward(b, conv.Square(8, 64, 64, 5, 1), 1)
}

func BenchmarkForwardMNISTL0Serial(b *testing.B) {
	benchForward(b, conv.Square(28, 20, 1, 5, 1), 1)
}
