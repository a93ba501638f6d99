package main

import (
	"bytes"
	"fmt"
	"io"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/dist"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/train"
)

// The dist suite: a worker-count sweep of data-parallel training
// (benchmark/ runs two workers only) and the one reader of the
// coordinator's dist.stage_ns.* split. Every point trains the same
// model on the same data with the same fixed shard count, varying only
// the number of worker processes, and is checked byte-for-byte against
// the in-process reference before its timing is reported — the dist
// package's determinism contract makes worker count a pure throughput
// knob. The two models are the shapes benchmark/ runs its dist stage
// at, so a point with two workers and two shards is that stage by
// another route. Steps/sec is steady state: the first epoch — worker
// spawn, dataset regeneration, the first sync, buffers growing to size
// — is run and dropped, as benchmark/ does.

// distShape is one benchmarked model and batch: synthetic MNIST into
// three hidden layers of Width.
type distShape struct {
	Name                 string
	Width, Batch, TrainN int
}

var distShapes = []distShape{
	{Name: "s1_w128", Width: 128, Batch: 8, TrainN: 320},
	{Name: "mb20_w256", Width: 256, Batch: 60, TrainN: 1200},
}

// distPoint is one worker-count measurement of one shape.
type distPoint struct {
	Shape        string `json:"shape"`
	Params       int    `json:"params"`
	BatchSize    int    `json:"batch_size"`
	TrainSamples int    `json:"train_samples"`
	// Workers is the number of worker processes; 0 is the in-process
	// reference path every other point must match bit-for-bit.
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// Steps and Seconds cover the measured epochs only.
	Steps   int     `json:"steps"`
	Seconds float64 `json:"seconds"`
	// StepsPerSec counts optimizer steps (batches), not samples.
	StepsPerSec float64 `json:"steps_per_sec"`
	// SpeedupVsSingle is steps_per_sec relative to the workers=0 point.
	SpeedupVsSingle float64 `json:"speedup_vs_single"`
	// ReduceMS is the mean dist.reduce_ns per step: the whole exchange
	// with workers, the whole local step without. StageMS splits the
	// exchange into the coordinator's dist.stage_ns.* means (encode,
	// wire — which includes waiting for the workers —, fold, apply);
	// absent on the workers=0 point, which has no exchange.
	ReduceMS float64            `json:"reduce_ms_per_step"`
	StageMS  map[string]float64 `json:"stage_ms_per_step,omitempty"`
	// BitIdentical reports whether the final weights matched the
	// workers=0 run byte-for-byte.
	BitIdentical bool    `json:"bit_identical"`
	FinalLoss    float64 `json:"final_loss"`
}

// distReport is the BENCH_distributed.json payload.
type distReport struct {
	// Epochs is the measured epoch count; one more is run first and
	// dropped.
	Epochs int         `json:"epochs"`
	Shards int         `json:"shards"`
	Points []distPoint `json:"points"`
	Notes  []string    `json:"notes,omitempty"`
}

// runDistPoint trains one shape once with the given worker count and
// returns the point (speedup and identity unset), the relative standard
// deviation of its measured epochs' durations, and the final weight
// bytes.
func runDistPoint(sh distShape, workers, shards, epochs int) (distPoint, float64, []byte, error) {
	dopts := dataset.Options{Seed: 42, MaxTrain: sh.TrainN, MaxTest: 50, MaxVal: 1}
	ds, err := dataset.Generate("mnist", dopts)
	if err != nil {
		return distPoint{}, 0, nil, err
	}
	net, err := nn.NewNetwork(nn.Uniform(ds.Spec.Dim(), sh.Width, 3, ds.Spec.Classes), rng.New(43))
	if err != nil {
		return distPoint{}, 0, nil, err
	}
	optim, err := opt.ByName("momentum", 0.05)
	if err != nil {
		return distPoint{}, 0, nil, err
	}
	m := core.NewStandard(net, optim)
	reg := obs.NewRegistry()
	co, err := dist.NewCoordinator(m, ds, sh.Batch, dist.Options{
		Workers: workers, Shards: shards, Data: dopts, Seed: 7, Registry: reg,
	})
	if err != nil {
		return distPoint{}, 0, nil, err
	}
	defer co.Close()
	tr, err := train.New(m, ds, train.Config{
		Epochs: epochs + 1, BatchSize: sh.Batch, Seed: 7, Stepper: co, Registry: reg,
	})
	if err != nil {
		return distPoint{}, 0, nil, err
	}
	hist, err := tr.Run()
	if err != nil {
		return distPoint{}, 0, nil, err
	}
	var weights bytes.Buffer
	if err := net.Save(&weights); err != nil {
		return distPoint{}, 0, nil, err
	}

	p := distPoint{
		Shape: sh.Name, Params: net.NumParams(), BatchSize: sh.Batch, TrainSamples: ds.Train.Len(),
		Workers: workers, Shards: shards,
		FinalLoss: hist.Epochs[len(hist.Epochs)-1].TrainLoss,
	}
	var epochSeconds []float64
	for _, e := range hist.Epochs[1:] {
		p.Steps += e.Batches
		p.Seconds += e.Duration.Seconds()
		epochSeconds = append(epochSeconds, e.Duration.Seconds())
	}
	mean, sd := meanStddev(epochSeconds)
	p.StepsPerSec = float64(p.Steps) / p.Seconds
	dists := reg.Snapshot().Dists
	p.ReduceMS = dists["dist.reduce_ns"].Mean / 1e6
	if workers > 0 {
		p.StageMS = map[string]float64{}
		for _, stage := range []string{"encode", "wire", "fold", "apply"} {
			p.StageMS[stage] = dists["dist.stage_ns."+stage].Mean / 1e6
		}
	}
	return p, sd / mean, weights.Bytes(), nil
}

// runDist is the dist suite: steady-state training throughput of both
// shapes at each worker count, over epochs measured epochs, one line per
// point. The workers=0 in-process run comes first and is the reference:
// shards is fixed at the largest worker count so every point of a shape
// computes the identical reduced gradient, and a point whose final
// weights differ from the reference's fails the suite.
func runDist(stdout io.Writer, workerCounts []int, epochs int) (measured, error) {
	shards := 1
	for _, w := range workerCounts {
		shards = max(shards, w)
	}
	rep := &distReport{Epochs: epochs, Shards: shards, Notes: []string{
		"steady state: one epoch (worker spawn, first sync, buffer growth) is run and dropped before the measured ones",
		"stage_ms_per_step is the coordinator's view and sums to reduce_ms_per_step; wire includes the time workers spend computing and applying",
		"workers are processes on this host: with more workers than idle CPUs, speedup_vs_single measures the exchange, not scaling",
	}}
	m := measured{report: rep, runs: epochs}
	for _, sh := range distShapes {
		var ref distPoint
		var refW []byte
		for _, w := range append([]int{0}, workerCounts...) {
			p, spread, weights, err := runDistPoint(sh, w, shards, epochs)
			if err != nil {
				return m, fmt.Errorf("%s workers=%d: %w", sh.Name, w, err)
			}
			label := fmt.Sprintf("workers=%d", w)
			if w == 0 {
				ref, refW, label = p, weights, "single-proc"
			}
			p.SpeedupVsSingle = p.StepsPerSec / ref.StepsPerSec
			p.BitIdentical = bytes.Equal(weights, refW)
			fmt.Fprintf(stdout, "%-9s %-11s shards=%d  %4d steps in %6.2fs  %7.1f steps/s  speedup %.2fx  step %6.2f ms",
				p.Shape, label, p.Shards, p.Steps, p.Seconds, p.StepsPerSec, p.SpeedupVsSingle, p.ReduceMS)
			if s := p.StageMS; s != nil {
				fmt.Fprintf(stdout, " = encode %.2f + wire %.2f + fold %.2f + apply %.2f", s["encode"], s["wire"], s["fold"], s["apply"])
			}
			fmt.Fprintln(stdout)
			if !p.BitIdentical {
				return m, fmt.Errorf("%s workers=%d: final weights not byte-identical to the single-process reference", sh.Name, w)
			}
			rep.Points = append(rep.Points, p)
			m.spread = max(m.spread, spread)
		}
	}
	return m, nil
}
