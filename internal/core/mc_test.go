package core

import (
	"math"
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// The backward-only estimator must be unbiased: averaging the gradW
// estimate over many trials approaches the exact gradient.
func TestMCGradientUnbiased(t *testing.T) {
	x, y := separableTask(4, 16, 6, 3)
	net := mlp(t, 5, 6, 12, 3)
	logits := net.Forward(x)
	exact := net.Backward(logits, y)

	mc, g := rowSampled{cfg: MCConfig{K: 4}}, rng.New(6)

	layer := net.Layers[len(net.Layers)-1]
	delta := net.Head.Delta(logits, y)
	mean := tensor.New(layer.FanIn(), layer.FanOut())
	const trials = 2000
	for i := 0; i < trials; i++ {
		tensor.AddInPlace(mean, mc.estimateGradW(layer, delta, g).W)
	}
	mean.Scale(1.0 / trials)
	exactW := exact[len(exact)-1].W
	diff := tensor.Sub(mean, exactW)
	rel := diff.FrobeniusNorm() / exactW.FrobeniusNorm()
	if rel > 0.1 {
		t.Fatalf("gradW estimator biased: rel error of mean %v", rel)
	}
}

func TestMCDeltaPrevUnbiased(t *testing.T) {
	x, y := separableTask(7, 10, 6, 3)
	net := mlp(t, 8, 6, 20, 3)
	logits := net.Forward(x)
	delta := net.Head.Delta(logits, y)
	layer := net.Layers[len(net.Layers)-1]

	exact := tensor.MatMulTransB(delta, layer.W)
	mc, g := rowSampled{cfg: MCConfig{K: 5}}, rng.New(9)
	mean := tensor.New(delta.Rows, layer.FanIn())
	const trials = 3000
	for i := 0; i < trials; i++ {
		tensor.AddInPlace(mean, mc.estimateDeltaPrev(layer, delta, g))
	}
	mean.Scale(1.0 / trials)
	rel := tensor.Sub(mean, exact).FrobeniusNorm() / exact.FrobeniusNorm()
	if rel > 0.1 {
		t.Fatalf("deltaPrev estimator biased: rel error of mean %v", rel)
	}
}

func TestMCLearnsMiniBatch(t *testing.T) {
	x, y := separableTask(10, 60, 8, 4)
	net := mlp(t, 11, 8, 48, 4)
	m := NewMCApprox(net, opt.NewSGD(0.2), MCConfig{K: 10, Where: MCBackward}, rng.New(12))
	if acc := trainAndEval(t, m, x, y, 400, 20); acc < 0.9 {
		t.Fatalf("mc minibatch accuracy %v", acc)
	}
	if m.Name() != "mc" || m.Axis() != AxisRows {
		t.Fatal("identity accessors wrong")
	}
}

// mcForward runs the row-sampled forward over every layer, as a Step
// with Where=MCForward does.
func mcForward(r rowSampled, net *nn.Network, x *tensor.Matrix, g *rng.RNG) *tensor.Matrix {
	a := x
	for i, l := range net.Layers {
		a = r.forward(i, l, a, g, nil)
	}
	return a
}

func TestMCForwardApproxPopulatesCaches(t *testing.T) {
	x, _ := separableTask(13, 6, 6, 3)
	net := mlp(t, 14, 6, 10, 3)
	logits := mcForward(rowSampled{cfg: MCConfig{K: 3}}, net, x, rng.New(15))
	if logits.Rows != 6 || logits.Cols != 3 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
	for _, l := range net.Layers {
		if l.In == nil || l.Z == nil || l.A == nil {
			t.Fatal("the sampled forward must populate caches for backprop")
		}
	}
	// With K >= width the approximate forward equals the exact forward.
	approx := mcForward(rowSampled{cfg: MCConfig{K: 1000}}, net, x, rng.New(16))
	if !tensor.EqualApprox(approx, net.Forward(x), 1e-10) {
		t.Fatal("the sampled forward with huge K must equal exact forward")
	}
}

func TestMCAllPlacementsTrainWithoutDivergence(t *testing.T) {
	x, y := separableTask(17, 40, 8, 4)
	for _, where := range []MCWhere{MCBackward, MCForward, MCBoth} {
		net := mlp(t, 18, 8, 24, 4)
		m := NewMCApprox(net, opt.NewSGD(0.05), MCConfig{K: 8, Where: where}, rng.New(19))
		for s := 0; s < 50; s++ {
			loss := m.Step(x, y)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("placement %v diverged", where)
			}
		}
	}
}

func TestMCWhereString(t *testing.T) {
	if MCBackward.String() != "backward" || MCForward.String() != "forward" || MCBoth.String() != "both" {
		t.Fatal("MCWhere names wrong")
	}
	if MCWhere(9).String() == "" {
		t.Fatal("unknown placement should still render")
	}
}

func TestMCStochasticGradWIsExact(t *testing.T) {
	// Batch size 1: the batch dimension has a single pair, so the gradW
	// "estimate" must be exact — the paper's no-benefit case.
	x, y := separableTask(20, 1, 6, 3)
	net := mlp(t, 21, 6, 10, 3)
	logits := net.Forward(x)
	exact := net.Backward(logits, y)
	delta := net.Head.Delta(logits, y)
	layer := net.Layers[len(net.Layers)-1]
	got := rowSampled{cfg: MCConfig{K: 10}}.estimateGradW(layer, delta, rng.New(22))
	if !tensor.EqualApprox(got.W, exact[len(exact)-1].W, 1e-12) {
		t.Fatal("batch-1 gradW must be exact")
	}
}

func TestMCEstimatorString(t *testing.T) {
	if MCBernoulli.String() != "bernoulli" || MCCR.String() != "cr" || MCTopK.String() != "topk" {
		t.Fatal("estimator names wrong")
	}
	if MCEstimator(9).String() == "" {
		t.Fatal("unknown estimator should render")
	}
}

// The CR estimator must also be unbiased for the backward products.
func TestMCCREstimatorUnbiased(t *testing.T) {
	x, y := separableTask(30, 10, 6, 3)
	net := mlp(t, 31, 6, 20, 3)
	logits := net.Forward(x)
	delta := net.Head.Delta(logits, y)
	layer := net.Layers[len(net.Layers)-1]
	exact := tensor.MatMulTransB(delta, layer.W)

	m, g := rowSampled{cfg: MCConfig{K: 5, Estimator: MCCR}}, rng.New(32)
	mean := tensor.New(delta.Rows, layer.FanIn())
	const trials = 3000
	for i := 0; i < trials; i++ {
		tensor.AddInPlace(mean, m.estimateDeltaPrev(layer, delta, g))
	}
	mean.Scale(1.0 / trials)
	rel := tensor.Sub(mean, exact).FrobeniusNorm() / exact.FrobeniusNorm()
	if rel > 0.1 {
		t.Fatalf("CR deltaPrev estimator biased: %v", rel)
	}
}

// Top-k is deterministic: identical draws every step.
func TestMCTopKDeterministic(t *testing.T) {
	x, y := separableTask(33, 8, 6, 3)
	net := mlp(t, 34, 6, 20, 3)
	logits := net.Forward(x)
	delta := net.Head.Delta(logits, y)
	layer := net.Layers[len(net.Layers)-1]
	m, g := rowSampled{cfg: MCConfig{K: 5, Estimator: MCTopK}}, rng.New(35)
	a := m.estimateDeltaPrev(layer, delta, g)
	b := m.estimateDeltaPrev(layer, delta, g)
	if !tensor.Equal(a, b) {
		t.Fatal("top-k estimator must be deterministic")
	}
}

// All estimators train a separable task without divergence.
func TestMCAllEstimatorsTrain(t *testing.T) {
	x, y := separableTask(36, 40, 8, 4)
	for _, est := range []MCEstimator{MCBernoulli, MCCR, MCTopK} {
		net := mlp(t, 37, 8, 32, 4)
		m := NewMCApprox(net, opt.NewSGD(0.1), MCConfig{K: 8, Estimator: est}, rng.New(38))
		if acc := trainAndEval(t, m, x, y, 300, 10); acc < 0.8 {
			t.Fatalf("estimator %v: accuracy %v", est, acc)
		}
	}
}
