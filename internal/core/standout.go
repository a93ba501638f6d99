package core

import (
	"fmt"
	"math"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// standout is Adaptive-Dropout's rule (Ba and Frey, §5.1): the keep
// probability of node j is a sigmoid of its own pre-activation,
// π_j = σ(alpha·z_j + beta), so nodes that would fire strongly are kept
// with high probability — a data-dependent approximation of the Bayesian
// posterior over architectures. This is what lets it avoid "randomly
// dropping significant nodes": useful nodes raise their own keep rate.
//
// Following Ba and Frey, training multiplies activations by the raw 0/1
// mask (no 1/π rescaling — at the paper's 5% base rate an inverted mask
// would amplify survivors 20x and drown the signal in noise), and
// inference uses the expectation network a = π(z) ⊙ f(z).
//
// Computing π requires the full pre-activation vector, so unlike Dropout
// and ALSH-approx the layer does all its forward work before discarding
// nodes, and its products stay dense — the computational overhead the
// paper measures in Table 4 (Adaptive-Dropout slower per epoch than
// Standard).
type standout struct {
	dense
	// alpha scales and beta shifts the sigmoid; σ(beta) is the keep
	// probability of a neutral node.
	alpha, beta float64
}

// keepProb returns π = σ(alpha·z + beta).
func (s standout) keepProb(z float64) float64 {
	v := s.alpha*z + s.beta
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

func (s standout) forward(_ int, l *nn.Layer, x *tensor.Matrix, g *rng.RNG, sc *layerScratch) *tensor.Matrix {
	l.Forward(x) // full pre-activations needed for π
	if sc.mask == nil || sc.mask.Rows != l.A.Rows || sc.mask.Cols != l.A.Cols {
		sc.mask = tensor.New(l.A.Rows, l.A.Cols)
	}
	for k, z := range l.Z.Data {
		if g.Bernoulli(s.keepProb(z)) {
			sc.mask.Data[k] = 1
		} else {
			sc.mask.Data[k] = 0
		}
	}
	// The masked activation feeds the next layer; l.A itself stays
	// unmasked so derive computes the activation derivative from the
	// true f(z).
	return tensor.Hadamard(l.A, sc.mask)
}

// derive lets the gradient flow only through kept nodes.
func (s standout) derive(l *nn.Layer, dA *tensor.Matrix, sc *layerScratch) *tensor.Matrix {
	tensor.HadamardInPlace(dA, sc.mask)
	return applyDerivative(l, dA)
}

// predict runs the standout expectation network: each hidden activation
// is scaled by its keep probability, a = π(z) ⊙ f(z), the Ba-Frey
// test-time rule.
func (s standout) predict(net *nn.Network, x *tensor.Matrix) []int {
	last := len(net.Layers) - 1
	act := x
	for i, l := range net.Layers {
		z := tensor.MatMul(act, l.W)
		z.AddRowVector(l.B)
		out := l.Act.Forward(z)
		if i != last {
			for k, zv := range z.Data {
				out.Data[k] *= s.keepProb(zv)
			}
		}
		act = out
	}
	return net.Head.Predictions(act)
}

// NewAdaptiveDropout wraps net in standout sampling. baseKeep sets beta =
// logit(baseKeep), so a node with zero pre-activation is kept with
// probability baseKeep (the paper matches the 5% rate of ALSH-approx).
func NewAdaptiveDropout(net *nn.Network, optim opt.Optimizer, alpha, baseKeep float64, g *rng.RNG) Method {
	if baseKeep <= 0 || baseKeep >= 1 {
		panic(fmt.Sprintf("core: baseKeep %v must be in (0,1)", baseKeep))
	}
	rule := standout{alpha: alpha, beta: math.Log(baseKeep / (1 - baseKeep))}
	return newLoop("adaptive-dropout", AxisColumns, net, optim, g, rule)
}
