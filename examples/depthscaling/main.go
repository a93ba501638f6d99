// Depthscaling: the paper's negative result (§7) end to end. First the
// theory — Lemma 7.1 / Theorem 7.2 error propagation in linear networks,
// reproducing the in-text table — then the practice: ALSH-approx trained
// on networks of growing depth, showing the accuracy collapse and the
// §10.3 prediction-distribution collapse.
//
//	go run ./examples/depthscaling
package main

import (
	"fmt"
	"log"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/lsh"
	"samplednn/internal/metrics"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/theory"
	"samplednn/internal/train"
)

func main() {
	fmt.Println("— Theorem 7.2: error/estimate ratio ((c+1)/c)^k − 1 at c = 5 —")
	fmt.Printf("%-4s %-14s %-18s %-14s\n", "k", "closed form", "exact-c simulation", "random top-k sim")
	uniform := theory.SimulateUniform(60, 50, 6) // m/(n−m) = 5
	topk := theory.SimulateTopK(1, 64, 16, 6)
	for k := 1; k <= 6; k++ {
		fmt.Printf("%-4d %-14.4f %-18.4f %-14.4f\n",
			k, theory.ErrorRatio(5, k), uniform.Ratios[k-1], topk.Ratios[k-1])
	}
	fmt.Printf("error exceeds the estimate beyond depth %d (paper: 3)\n", theory.DepthLimit(5, 1))
	fmt.Printf("random-weights sim realized mean c = %.2f\n\n", topk.MeanC)

	fmt.Println("— ALSH-approx in practice: accuracy and prediction coverage vs depth —")
	ds, err := dataset.Generate("mnist", dataset.Options{Seed: 5, MaxTrain: 800, MaxTest: 300, MaxVal: 100})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-10s %-14s %-13s %-12s\n", "depth", "accuracy", "pred-coverage", "pred-entropy", "active-frac")
	for _, depth := range []int{1, 3, 5, 7} {
		net, err := nn.NewNetwork(nn.Uniform(ds.Spec.Dim(), 96, depth, ds.Spec.Classes), rng.New(11))
		if err != nil {
			log.Fatal(err)
		}
		m, err := core.NewALSHApprox(net, opt.NewAdam(0.002), core.ALSHConfig{
			Params: lsh.Params{K: 5, L: 12, M: 3, U: 0.83}, MinActive: 10,
		}, rng.New(13))
		if err != nil {
			log.Fatal(err)
		}
		tr, err := train.New(m, ds, train.Config{
			Epochs: 3, BatchSize: 1, Seed: 17, MaxEvalSamples: 300, RebuildPerEpoch: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tr.Run(); err != nil {
			log.Fatal(err)
		}
		cm := metrics.NewConfusionMatrix(ds.Spec.Classes)
		cm.AddBatch(ds.Test.Y, m.Net().Predict(ds.Test.X))
		fmt.Printf("%-6d %8.2f%%  %-14.2f %-13.2f %-12.3f\n",
			depth, 100*cm.Accuracy(), cm.PredictionCoverage(), cm.PredictionEntropy(), m.SamplingSnapshot().ActiveFraction)
	}
	fmt.Println("\naccuracy falls and predictions concentrate as depth grows — §7 + §10.3.")
}
