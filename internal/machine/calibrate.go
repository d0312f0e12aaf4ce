package machine

import (
	"spgcnn/internal/exec"
	"spgcnn/internal/gemm"
	"spgcnn/internal/par"
	"spgcnn/internal/rng"
)

// Host calibration: measure this machine's achievable single-core compute
// rate and streaming bandwidth and return a Machine model for it, so the
// paper's figures can be regenerated under the host's own roofline
// (`spg-bench -machine host`). This is a quick, deterministic probe — a
// few hundred milliseconds — not a rigorous microbenchmark suite.

// CalibrateHost measures the host and returns a calibrated model. The two
// probes are timed in separate passes: a stream copy between GEMM runs
// would evict the GEMM's cache-resident operands.
func CalibrateHost() Machine {
	c := exec.New(1)
	peak := measureComputeGFlops(c)
	stream := measureStreamGBs(c)
	cores := par.MaxWorkers()
	return Machine{
		Cores:             cores,
		PeakGFlopsPerCore: peak,
		// The roofline knee scales with the compute/bandwidth balance:
		// knee = AIT at which streaming at `stream` GB/s sustains half of
		// peak, i.e. 0.5·peak GFlops needs (0.5·peak·4/knee) GB/s.
		HalfPerfAIT: 0.5 * peak * 4 / stream * 4,
		// Shared bandwidth: assume the measured single-core stream rate
		// saturates at ~4 concurrent streams (typical client parts).
		SharedBandwidthGBs:   stream * 4,
		StencilLoadCost:      3.0,
		TransformGBsPerCore:  stream / 2, // strided copies run below peak stream
		SparseAxpyEfficiency: 0.55,
	}
}

// measureComputeGFlops times a cache-resident register-tiled GEMM — the
// closest thing to this implementation's attainable peak.
func measureComputeGFlops(ctx *exec.Ctx) float64 {
	const n = 160 // ~100 KiB per operand: L2-resident
	r := rng.New(1)
	a := gemm.NewMatrix(n, n)
	b := gemm.NewMatrix(n, n)
	c := gemm.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.Float32()
		b.Data[i] = r.Float32()
	}
	best := ctx.Measure(nil, func() { gemm.Serial(c, a, b) })
	return float64(gemm.Flops(n, n, n)) / best[0] / 1e9
}

// measureStreamGBs times a large copy (read + write traffic).
func measureStreamGBs(ctx *exec.Ctx) float64 {
	const n = 8 << 20 // 32 MiB src + dst: beyond LLC on most parts
	src := make([]float32, n)
	dst := make([]float32, n)
	for i := range src {
		src[i] = float32(i)
	}
	best := ctx.Measure(nil, func() { copy(dst, src) })
	return float64(n) * 8 / best[0] / 1e9 // 4 B read + 4 B written per element
}
