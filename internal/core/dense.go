package core

import (
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// dense is the rule of a layer that keeps every node and computes every
// product exactly: all of Standard, the output layer of every
// column-sampling method, and the parts other rules leave exact.
type dense struct{}

func (dense) forward(_ int, l *nn.Layer, x *tensor.Matrix, _ *rng.RNG, _ *layerScratch) *tensor.Matrix {
	return l.Forward(x)
}

func (dense) derive(l *nn.Layer, dA *tensor.Matrix, _ *layerScratch) *tensor.Matrix {
	return applyDerivative(l, dA)
}

func (dense) products(_ int, l *nn.Layer, delta *tensor.Matrix, _ *rng.RNG, _ *layerScratch) (nn.Grads, []int, *tensor.Matrix) {
	grads, dPrev := l.Backward(delta)
	return grads, nil, dPrev
}

// Standard trains with exact feedforward and backpropagation — the
// paper's STANDARD baseline. It is the loop under the dense rule, and
// the one method that exports its gradients (GradComputer).
type Standard struct{ *loop }

// NewStandard wraps a network and optimizer in the exact training method.
func NewStandard(net *nn.Network, optim opt.Optimizer) *Standard {
	return &Standard{newLoop("standard", AxisNone, net, optim, nil, dense{})}
}

// ComputeGrads runs the forward and backward pass on one batch,
// returning the loss and per-layer gradients without updating weights.
func (s *Standard) ComputeGrads(x *tensor.Matrix, y []int) (float64, []nn.Grads) {
	grads := make([]nn.Grads, len(s.net.Layers))
	return s.step(x, y, grads), grads
}

// ApplyGrads feeds one gradient per layer through the optimizer.
func (s *Standard) ApplyGrads(grads []nn.Grads) {
	s.lap(nil)
	for i, l := range s.net.Layers {
		s.apply(i, l, grads[i], nil)
	}
	s.lap(&s.timing.Backward)
}
