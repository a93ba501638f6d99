package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"samplednn/internal/core"
	"samplednn/internal/dist"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/train"
)

const distShards = 2

// distResult is one data-parallel training run.
type distResult struct {
	hist    *train.History
	weights []byte       // the final network, serialized
	snap    obs.Snapshot // the run's registry
	params  int
}

// distRun trains standard + momentum through a dist.Coordinator with the
// given number of worker processes. epochs 0 runs until the deadline;
// otherwise exactly that many.
func distRun(f *fixture, workers, epochs int, deadline time.Time, rec *recorder, root handle) (*distResult, error) {
	netw, err := nn.NewNetwork(f.w.arch(), rng.New(f.seed+30))
	if err != nil {
		return nil, err
	}
	optim, err := opt.ByName("momentum", 0.05)
	if err != nil {
		return nil, err
	}
	m, err := core.New("standard", netw, optim, core.DefaultOptions(methodSeed))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	co, err := dist.NewCoordinator(m, f.distDS, f.w.DistBatch, dist.Options{
		Workers: workers, Shards: distShards, Data: f.distOpts, Seed: f.seed, Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	run := rec.begin(fmt.Sprintf("dist-run.workers%d", workers), root)
	st := &stepper{step: co.StepBatch, stepName: "dist.step", deadline: deadline, epochs: epochs, rec: rec, parent: run}
	tr, err := train.New(m, f.distDS, train.Config{
		Epochs: maxEpochs, BatchSize: f.w.DistBatch, Seed: f.seed + 31, Stepper: st, Registry: reg,
	})
	if err != nil {
		_ = co.Close()
		return nil, err
	}
	hist, err := tr.Run()
	st.finish()
	rec.end(run)
	// Close stops the workers and waits for them.
	if cerr := co.Close(); cerr != nil && (err == nil || errors.Is(err, errBudget)) {
		err = cerr
	}
	if err != nil && !errors.Is(err, errBudget) {
		return nil, err
	}
	if hist.Diverged || len(hist.Epochs) < 1+minMeasured {
		return nil, fmt.Errorf("dist: workers=%d diverged or completed only %d epochs", workers, len(hist.Epochs))
	}
	var weights bytes.Buffer
	if err := netw.Save(&weights); err != nil {
		return nil, err
	}
	return &distResult{hist, weights.Bytes(), reg.Snapshot(), netw.NumParams()}, nil
}

// distStage trains with two worker processes until two thirds of budget
// are used, then repeats the same number of epochs in-process: the two
// must end on byte-identical weights.
func distStage(f *fixture, r *results, rec *recorder, root handle, budget time.Duration) {
	steps := float64((f.w.DistN + f.w.DistBatch - 1) / f.w.DistBatch)
	rate := func(h *train.History) (rates, traced, untraced []float64) {
		for _, e := range h.Epochs[1:] {
			v := steps / e.Duration.Seconds()
			rates = append(rates, v)
			if e.Epoch%2 == 0 {
				traced = append(traced, v)
			} else {
				untraced = append(untraced, v)
			}
		}
		return
	}

	two, err := distRun(f, 2, 0, time.Now().Add(budget*2/3), rec, root)
	r.op(err)
	if err != nil {
		return
	}
	hist, snap := two.hist, two.snap
	bad := int(snap.Counters["dist.step_aborts"] + snap.Counters["dist.retries"])
	r.ops(len(hist.Epochs)*int(steps), bad, "dist steps were aborted or retried")
	rates, traced, untraced := rate(hist)
	r.add("dist_steps_per_s", rates...)

	ref, err := distRun(f, 0, len(hist.Epochs), time.Time{}, nil, handle{})
	if err == nil && !bytes.Equal(two.weights, ref.weights) {
		err = errors.New("dist: final weights differ between Workers: 2 and Workers: 0")
	}
	r.op(err)
	if err != nil || rec == nil {
		return
	}

	r.overhead = append(r.overhead, 100*(median(untraced)/median(traced)-1))
	refRates, _, _ := rate(ref.hist)
	r.add("dist.inproc_steps_per_s", refRates...)
	r.add("dist.efficiency", median(rates)/median(refRates))
	stepNS := sortedCopy(rec.durations("dist.step", 0))
	r.add("dist.step_ms.p50", quantile(stepNS, 0.5)/1e6)
	r.add("dist.step_ms.p99", quantile(stepNS, 0.99)/1e6)
	red := snap.Dists["dist.reduce_ns"]
	r.add("dist.reduce_ms_per_step", red.Mean/1e6)
	// Computed, not measured: each worker sends one full gradient up and
	// receives the reduced one back, 8 bytes per parameter.
	r.add("dist.grad_mb_per_step", float64(2*2*8*two.params)/1e6)
	var durs []float64
	for _, e := range hist.Epochs[1:] {
		durs = append(durs, e.Duration.Seconds())
	}
	r.add("dist.spawn_sync_s", hist.Epochs[0].Duration.Seconds()-median(durs))
	r.add("dist.retries", float64(snap.Counters["dist.retries"]))
}
