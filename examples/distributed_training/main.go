// Distributed training: the cluster context the paper situates spg-CNN in
// (§1: "abundance of multi-core CPU clusters"; §6: DistBelief/Adam train
// with many CPU workers synchronizing model parameters). This example runs
// synchronous data-parallel SGD across simulated workers and shows two
// things: (1) fully-synchronous data parallelism reproduces single-worker
// SGD exactly, and (2) relaxing the synchronization period (local SGD)
// trades a little convergence for fewer parameter synchronizations — the
// latency/throughput trade-off §6 describes.
package main

import (
	"flag"
	"fmt"

	"spgcnn"
)

func main() {
	var (
		replicas = flag.Int("replicas", 4, "simulated worker count")
		epochs   = flag.Int("epochs", 4, "training epochs")
		examples = flag.Int("examples", 256, "dataset size (multiple of batch)")
		batch    = flag.Int("batch", 32, "global minibatch size")
	)
	flag.Parse()

	build := func(int) *spgcnn.Network {
		def, err := spgcnn.ParseNet(spgcnn.MNISTNet)
		if err != nil {
			panic(err)
		}
		st, _ := spgcnn.StrategyByName("gemm-in-parallel", 1)
		// Each replica gets its own execution context (replicas step
		// concurrently, and a private arena keeps their scratch disjoint).
		net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{
			Ctx: spgcnn.NewCtx(1), Seed: 11, FixedStrategy: &st,
		})
		if err != nil {
			panic(err)
		}
		return net
	}
	ds := spgcnn.MNISTData(*examples)

	for _, syncEvery := range []int{1, 4, 16} {
		dp, err := spgcnn.NewDataParallel(build, spgcnn.DataParallelConfig{
			Replicas:    *replicas,
			LR:          0.05,
			GlobalBatch: *batch,
			SyncEvery:   syncEvery,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("--- %d replicas, parameter sync every %d step(s) ---\n", *replicas, syncEvery)
		r := spgcnn.NewRNG(21)
		for e := 0; e < *epochs; e++ {
			stats := dp.TrainEpoch(ds, r)
			fmt.Printf("epoch %d: loss %.4f  acc %5.1f%%  %7.1f images/sec  %d syncs\n",
				e+1, stats.Loss, stats.Accuracy*100, stats.ImagesPerSec, stats.Syncs)
		}
		fmt.Println()
	}
	fmt.Println("(sync-every-1 equals single-worker large-batch SGD exactly;")
	fmt.Println(" longer periods cut synchronization cost at a small convergence price)")
}
