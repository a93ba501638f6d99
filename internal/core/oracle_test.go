package core

import (
	"math"
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// fullSampling lists, for every method, the setting under which it
// samples everything — so it must reproduce Standard — and how closely:
// exactly equal arithmetic gets the tight bounds, a different summation
// order (gathered columns, per-sample merge) the loose ones. A new
// sampler is covered by adding its row; the tests below fail until it
// has one.
var fullSampling = map[string]struct {
	tune             func(o *Options, width int)
	lossTol, gradTol float64
}{
	"standard": {func(*Options, int) {}, 0, 0},
	// Keep probability 1: every node is active and the inverted scale is 1/1.
	"dropout": {func(o *Options, _ int) { o.DropoutKeep = 1 }, 1e-12, 1e-10},
	// π = σ(alpha·z + beta) pinned within 1e-12 of 1 for every z: the
	// 0/1 mask is all ones.
	"adaptive-dropout": {func(o *Options, _ int) { o.StandoutAlpha, o.DropoutKeep = 1e-300, 1-1e-12 }, 1e-12, 1e-10},
	// MinActive equal to the layer width pads every active set to the
	// full node set.
	"alsh": {func(o *Options, width int) { o.ALSH = ALSHConfig{Params: lshParamsForTest(), MinActive: width} }, 1e-9, 1e-9},
	// K at least every sampled dimension: all Eq. 7 probabilities are 1.
	"mc": {func(o *Options, _ int) { o.MC = MCConfig{K: 100, Where: MCBackward} }, 1e-12, 1e-10},
	"alsh-parallel": {func(o *Options, width int) {
		o.ALSH = ALSHConfig{Params: lshParamsForTest(), MinActive: width}
		o.Workers = 2
	}, 1e-9, 1e-9},
}

// oracleNet builds a two-hidden-layer network of the given width; tanh
// keeps the loss smooth for the finite-difference check.
func oracleNet(t *testing.T, width int) *nn.Network {
	t.Helper()
	cfg := nn.Uniform(6, width, 2, 3)
	cfg.Activation = "tanh"
	net, err := nn.NewNetwork(cfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// sgdGradients takes one SGD step of rate 1 with the named method at its
// full-sampling setting and reads the gradient the shared loop applied
// back out of the weights: W_before − W_after.
func sgdGradients(t *testing.T, name string, x *tensor.Matrix, y []int) (loss float64, grads []nn.Grads) {
	t.Helper()
	const width = 10
	row, ok := fullSampling[name]
	if !ok {
		t.Fatalf("method %q has no full-sampling row in the oracle table: add one", name)
	}
	net := oracleNet(t, width)
	before := net.Clone()
	o := DefaultOptions(32)
	row.tune(&o, width)
	m, err := New(name, net, opt.NewSGD(1), o)
	if err != nil {
		t.Fatal(err)
	}
	loss = m.Step(x, y)
	for i, l := range net.Layers {
		g := nn.Grads{W: tensor.Sub(before.Layers[i].W, l.W), B: make([]float64, len(l.B))}
		for j := range l.B {
			g.B[j] = before.Layers[i].B[j] - l.B[j]
		}
		grads = append(grads, g)
	}
	return loss, grads
}

// Every method at its 100%-sampling setting must take Standard's step.
func TestFullSamplingEqualsStandard(t *testing.T) {
	x, y := separableTask(30, 10, 6, 3)
	wantLoss, want := sgdGradients(t, "standard", x, y)
	for _, name := range append(MethodNames(), "alsh-parallel") {
		row := fullSampling[name]
		loss, got := sgdGradients(t, name, x, y)
		if math.Abs(loss-wantLoss) > row.lossTol {
			t.Errorf("%s: loss %v, standard %v", name, loss, wantLoss)
		}
		for i := range want {
			if !tensor.EqualApprox(got[i].W, want[i].W, row.gradTol) {
				t.Errorf("%s: layer %d weight step differs from standard", name, i)
			}
			for j := range want[i].B {
				if math.Abs(got[i].B[j]-want[i].B[j]) > row.gradTol {
					t.Errorf("%s: layer %d bias %d step differs from standard", name, i, j)
				}
			}
		}
	}
}

// The gradient the shared backward loop applies — under every rule, at
// full sampling — must match central finite differences of the exact
// loss in every parameter.
func TestLoopGradientMatchesFiniteDifferences(t *testing.T) {
	x, y := separableTask(30, 10, 6, 3)
	const h, tol = 1e-6, 1e-6
	ref := oracleNet(t, 10)
	numeric := func(p *float64) float64 {
		orig := *p
		*p = orig + h
		up := ref.Loss(x, y)
		*p = orig - h
		down := ref.Loss(x, y)
		*p = orig
		return (up - down) / (2 * h)
	}
	for _, name := range append(MethodNames(), "alsh-parallel") {
		_, got := sgdGradients(t, name, x, y)
		for i, l := range ref.Layers {
			for k := range l.W.Data {
				if want := numeric(&l.W.Data[k]); math.Abs(got[i].W.Data[k]-want) > tol {
					t.Fatalf("%s: layer %d dL/dW[%d] = %v, finite difference %v", name, i, k, got[i].W.Data[k], want)
				}
			}
			for j := range l.B {
				if want := numeric(&l.B[j]); math.Abs(got[i].B[j]-want) > tol {
					t.Fatalf("%s: layer %d dL/dB[%d] = %v, finite difference %v", name, i, j, got[i].B[j], want)
				}
			}
		}
	}
}
