package bench

import (
	"fmt"

	"spgcnn/internal/dataparallel"
	"spgcnn/internal/machine"
	"spgcnn/internal/rng"
)

// RunScaleout regenerates the scale-out data-parallel evaluation (the Fig. 4
// analogue for the reduction subsystem) as far as it is a pure function of
// the code: the CT-CSR sparse exchange's wire-byte savings across a
// delta-density sweep and the alpha-beta cluster model's 8-64 replica
// curves. Wall-clock of the schedules and of straggler mitigation is host
// timing, which the benchmark ledger owns (dataparallel.* rows).
func RunScaleout(o Options) []Table {
	sizes := []int{131072, 65536, 24576}
	if o.full() {
		sizes = []int{524288, 262144, 65536}
	}
	return []Table{scaleoutWireTable(sizes), scaleoutModelTable()}
}

// scaleoutViews builds n aligned replica parameter views from one seeded
// parameter set, then perturbs each replica's copy so a reduction round has
// real work to do.
func scaleoutViews(n int, sizes []int) [][][]float32 {
	r := rng.New(0xAC0)
	params := make([][]float32, len(sizes))
	for j, l := range sizes {
		params[j] = make([]float32, l)
		for i := range params[j] {
			params[j][i] = r.Float32() - 0.5
		}
	}
	views := make([][][]float32, n)
	for w := range views {
		views[w] = make([][]float32, len(sizes))
		for j := range sizes {
			views[w][j] = append([]float32(nil), params[j]...)
			views[w][j][w%len(params[j])] += float32(w + 1)
		}
	}
	return views
}

// scaleoutWireTable sweeps the per-replica delta density and reports the
// wire bytes a scale-out interconnect would carry: dense ring transfers
// 2(N-1) full vectors, the CT-CSR exchange ships only encoded non-zeros
// plus the touched-union broadcast.
func scaleoutWireTable(sizes []int) Table {
	const n = 8
	var elems int64
	for _, l := range sizes {
		elems += int64(l)
	}
	denseWire := 2 * int64(n-1) * elems * 4
	t := Table{
		Title: "Scale-out: CT-CSR sparse exchange wire bytes vs dense ring (8 replicas)",
		Note: "per-replica parameter-delta density vs interconnect traffic per round; " +
			"reduction = (dense-sparse)/dense",
		Columns: []string{"delta density", "dense ring MB", "sparse MB", "wire reduction %"},
	}
	for _, density := range []float64{1.0, 0.5, 0.25, 0.10, 0.05, 0.01} {
		views := scaleoutViews(n, sizes)
		ex := dataparallel.NewExchange(dataparallel.MethodRing, dataparallel.SparseForce, views, nil)
		// Perturb each replica at the target density; a replica's delta is
		// exactly the set of positions it touched since the base snapshot.
		step := int(1.0/density + 0.5)
		if step < 1 {
			step = 1
		}
		for w := range views {
			for j := range views[w] {
				for i := w % step; i < len(views[w][j]); i += step {
					views[w][j][i] += 0.25
				}
			}
		}
		info := ex.Sync()
		t.AddRow(fmt.Sprintf("%.2f", density),
			float64(denseWire)/1e6, float64(info.WireBytes)/1e6,
			float64(denseWire-info.WireBytes)/float64(denseWire)*100)
	}
	return t
}

// scaleoutModelTable evaluates the alpha-beta cluster model (10 GbE-era
// defaults) for a 1M-parameter model at 8-64 replicas.
func scaleoutModelTable() Table {
	const params = 1_000_000
	const density = 0.05
	t := Table{
		Title: "Scale-out: modeled allreduce cost, 1M parameters (alpha-beta cluster model)",
		Note:  fmt.Sprintf("10 GbE-class links (1.25 GB/s, 25us); sparse at density %.2f", density),
		Columns: []string{"replicas", "flat ms", "ring ms", "tree ms", "sparse-ring ms",
			"ring speedup over flat"},
	}
	for _, n := range []int{8, 16, 32, 64} {
		c := machine.DefaultCluster(n)
		flat := c.AllReduceSeconds("flat", params)
		ring := c.AllReduceSeconds("ring", params)
		tree := c.AllReduceSeconds("tree", params)
		sparse := c.SparseAllReduceSeconds("ring", params, density)
		t.AddRow(n, flat*1e3, ring*1e3, tree*1e3, sparse*1e3, flat/ring)
	}
	return t
}
