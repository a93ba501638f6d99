// Package core implements the five training methods the paper evaluates
// (§8.3) over a shared MLP substrate:
//
//   - "standard" — exact feedforward and backpropagation (the baseline).
//   - "dropout" — uniform node sampling in each hidden layer (§5.1).
//   - "adaptive-dropout" — the Ba-Frey "standout" data-dependent sampler
//     (§5.1), whose keep probabilities track the current network.
//   - "alsh" — the Spring-Shrivastava hash-based node sampler (§5.2):
//     per-layer asymmetric-LSH MIPS indexes select the active nodes
//     before any inner product is computed ("alsh-parallel" fans the
//     same rule out per sample, fanout.go).
//   - "mc" — the Adelman et al. Monte-Carlo matrix-multiplication
//     approximation (§6.2), applied during backpropagation only (§10.1).
//
// The package makes the paper's central observation (§4.2) concrete:
// every method is a special case of sampled matrix multiplication,
// differing only in which Axis of each layer's weight matrix it samples
// — Columns (nodes of the current layer: Dropout, Adaptive-Dropout,
// ALSH) or Rows (nodes of the previous layer: MC-approx). One
// forward/backward/update loop (loop.go) trains all of them; a method is
// the per-layer rule it plugs in (dense.go, columns.go, standout.go,
// rows.go), and ALSH adds a hash-lookup column picker (hashindex.go).
package core

import (
	"fmt"
	"io"
	"time"

	"samplednn/internal/lsh"
	"samplednn/internal/metrics"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// Axis says which dimension of the weight matrix a method samples — the
// paper's §4.2 taxonomy.
type Axis int

// Sampling axes.
const (
	// AxisNone marks exact training.
	AxisNone Axis = iota
	// AxisColumns marks "sampling from the current layer": a subset of
	// W's columns (nodes) gets exact inner products; the rest are skipped.
	AxisColumns
	// AxisRows marks "sampling from the previous layer": every column is
	// kept but each inner product is estimated from a subset of W's rows.
	AxisRows
)

// String names the axis.
func (a Axis) String() string {
	if names := [...]string{"none", "columns", "rows"}; a >= 0 && int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Timing splits a method's cumulative training time into the phases the
// paper reports (§9.2, §10.1): feedforward, backpropagation (including
// the optimizer step), and index maintenance (hash updates/rebuilds,
// ALSH-approx only).
type Timing struct {
	Forward  time.Duration
	Backward time.Duration
	Maintain time.Duration
}

// Total returns the sum of all phases.
func (t Timing) Total() time.Duration { return t.Forward + t.Backward + t.Maintain }

// Method is one training approach: it owns a network and knows how to
// perform a sampled (or exact) training step on a batch. Every method in
// this package is the shared loop (loop.go) running one per-layer rule,
// so the surface below has one implementation; ParallelALSH replaces
// only the step's fan-out.
type Method interface {
	// Name identifies the method in experiment output ("standard",
	// "dropout", "adaptive-dropout", "alsh", "alsh-parallel", "mc").
	Name() string
	// Axis reports which weight-matrix dimension the method samples.
	Axis() Axis
	// Step trains on one batch and returns the training loss the method
	// observed (computed from its own, possibly approximate, forward
	// pass). A contained fault (see TryStep) surfaces as NaN.
	Step(x *tensor.Matrix, y []int) float64
	// TryStep is Step with an error path: ParallelALSH's workers convert
	// panics into errors instead of crashing the process. On a non-nil
	// error the batch was not applied — the weights are exactly as they
	// were before the call.
	TryStep(x *tensor.Matrix, y []int) (float64, error)
	// Net returns the underlying network.
	Net() *nn.Network
	// Optimizer returns the optimizer updates are applied with; the
	// trainer checkpoints its state and decays its learning rate during
	// divergence recovery.
	Optimizer() opt.Optimizer
	// Timing returns cumulative phase timings since the last reset.
	Timing() Timing
	// ResetTiming zeroes the phase timings and the sampling
	// distributions, aligning both with the trainer's per-epoch window.
	ResetTiming()
	// RebuildIndexes refits every weight-derived sampling structure to
	// the current weights — ALSH's full per-epoch re-hash (§9.2). A
	// no-op for methods that keep none.
	RebuildIndexes()
	// SaveState serializes the run-time state beyond the weights —
	// private RNG streams, sample counters, hash-maintenance cadence —
	// so a resumed run continues the method's random choices
	// byte-for-byte. Exact training has none and writes nothing.
	SaveState(w io.Writer) error
	// LoadState restores state written by SaveState on a method of the
	// same name over the same architecture, then rebuilds structures
	// derived from the weights, so callers restore the weights first.
	LoadState(r io.Reader) error
	// ApproxForward replays the method's approximate feedforward pass
	// outside the training loop and returns each layer's activation,
	// index-aligned with Net().Layers; the error-compounding probe
	// (internal/probe) compares it with the exact forward to measure
	// the error Theorem 7.2 bounds. For MC-approx, which only
	// approximates the backward pass, it shows what forward
	// approximation *would* do (the §10.1 ablation).
	//
	// It is read-only with respect to training state: no layer caches,
	// no scratch a Step depends on, no draws from the method's own RNG.
	// All randomness comes from g, so interleaving probe calls with
	// training leaves the trained weights byte-for-byte unchanged.
	ApproxForward(x *tensor.Matrix, g *rng.RNG) []*tensor.Matrix
	// PredictBatch returns the predicted class per row of x: the exact
	// network forward, except for Adaptive-Dropout's expectation network.
	PredictBatch(x *tensor.Matrix) []int
	// SamplingSnapshot returns the per-epoch sampling diagnostics for
	// the run journal, or nil when the method keeps none.
	SamplingSnapshot() *SamplingSnapshot
}

// GradComputer splits a Step into its two halves: computing the batch
// gradient and applying an (arbitrary, possibly reduced) gradient through
// the optimizer. Distributed data-parallel training (internal/dist) is
// built on this seam — shard gradients are computed on workers, summed
// in a fixed order on the coordinator, and applied everywhere. Only
// exact training (Standard) implements it: a column-sampled update
// touches the optimizer state of its active columns only, which a dense
// ApplyGrads cannot reproduce. ComputeGrads followed by
// ApplyGrads(grads) on the same batch is byte-identical to Step.
type GradComputer interface {
	// ComputeGrads runs the forward and backward pass on one batch and
	// returns the observed loss and per-layer gradients without touching
	// the weights. The gradients are freshly allocated (not aliased to
	// method scratch).
	ComputeGrads(x *tensor.Matrix, y []int) (float64, []nn.Grads)
	// ApplyGrads feeds one gradient per layer through the optimizer,
	// updating the weights in place.
	ApplyGrads(grads []nn.Grads)
}

// SamplingSnapshot carries a sampling method's per-epoch diagnostics for
// the run journal: the paper's sparsity headline (ActiveFraction, ~5%)
// plus the §10.3 collapse signals — the distribution of active-set sizes
// per hidden layer and the hash-bucket occupancy behind them.
type SamplingSnapshot struct {
	// ActiveFraction is the mean fraction of nodes active in the most
	// recent step.
	ActiveFraction float64 `json:"active_fraction"`
	// ActiveSets[i] is hidden layer i's distribution of active-set sizes
	// since the last ResetTiming (one observation per processed sample or
	// batch union).
	ActiveSets []obs.DistSnapshot `json:"active_sets,omitempty"`
	// Buckets[i] is hidden layer i's current hash-table occupancy.
	Buckets []lsh.BucketStats `json:"buckets,omitempty"`
	// IndexBytes is the summed footprint estimate of the hash indexes,
	// the "table setup" cost of the §9.4 memory analysis.
	IndexBytes int `json:"-"`
}

// EvalAccuracy measures inference accuracy of a method on labelled data.
func EvalAccuracy(m Method, x *tensor.Matrix, y []int) float64 {
	return metrics.Accuracy(y, m.PredictBatch(x))
}

// Recommendation is the outcome of the paper's §10.4 decision tree.
type Recommendation struct {
	// Method is the suggested training approach.
	Method string
	// Reason cites the paper evidence behind the choice.
	Reason string
}

// Recommend applies the §10.4 decision tree: mini-batch training →
// MC-approx; stochastic training on shallow networks with parallel
// hardware → ALSH-approx; otherwise standard training.
func Recommend(batchSize, hiddenLayers int, parallel bool) Recommendation {
	if batchSize > 1 {
		return Recommendation{
			Method: "mc",
			Reason: "mini-batch SGD: MC-approx dominates on speed and accuracy (§9.3, Table 4)",
		}
	}
	if hiddenLayers <= 4 && parallel {
		return Recommendation{
			Method: "alsh",
			Reason: "stochastic + shallow (≤4 layers) + parallel hardware: ALSH-approx scales with processors (§10.4)",
		}
	}
	return Recommendation{
		Method: "standard",
		Reason: "stochastic setting without parallel hardware (or deep network): sampling overhead exceeds savings (Table 3, §7)",
	}
}
