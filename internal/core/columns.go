package core

import (
	"fmt"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// colPicker chooses a hidden layer's active node set for one step, from
// the layer's input (ALSH) or regardless of it (Dropout). The returned
// slice is freshly allocated.
type colPicker interface {
	pick(i int, l *nn.Layer, x *tensor.Matrix, g *rng.RNG, sc *layerScratch) []int
}

// activeCols is the column-sampling rule ("sampling from the current
// layer", §4.2): a picker names the active nodes; forward, backward and
// the optimizer step run on the gathered |S|-column submatrix only, and
// every other activation is exactly zero for this step. scale multiplies
// the survivors: 1/p for Dropout's inverted scaling, 1 for ALSH, which
// treats the skipped inner products as zero — the error §7 bounds.
type activeCols struct {
	pick  colPicker
	scale float64
}

func (r activeCols) forward(i int, l *nn.Layer, x *tensor.Matrix, g *rng.RNG, sc *layerScratch) *tensor.Matrix {
	sc.cols = r.pick.pick(i, l, x, g, sc)
	return forwardActive(l, x, sc, r.scale)
}

func (r activeCols) derive(l *nn.Layer, dA *tensor.Matrix, sc *layerScratch) *tensor.Matrix {
	return activeDelta(l, dA, sc, r.scale)
}

func (r activeCols) products(_ int, _ *nn.Layer, deltaSub *tensor.Matrix, _ *rng.RNG, sc *layerScratch) (nn.Grads, []int, *tensor.Matrix) {
	gw, gb, dPrev := activeProducts(sc, deltaSub)
	return nn.Grads{W: gw, B: gb}, sc.cols, dPrev
}

// bernoulli is Dropout's picker (Srivastava et al., §5.1): every node is
// kept independently with probability p, with a floor of one node so a
// layer is never empty.
type bernoulli struct{ p float64 }

func (b bernoulli) pick(_ int, l *nn.Layer, _ *tensor.Matrix, g *rng.RNG, _ *layerScratch) []int {
	n := l.FanOut()
	cols := make([]int, 0, int(float64(n)*b.p)+4)
	for j := 0; j < n; j++ {
		if g.Bernoulli(b.p) {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		cols = append(cols, g.IntN(n))
	}
	return cols
}

// NewDropout wraps net in uniform node dropout with keep probability p:
// only the kept nodes participate in the forward pass, backpropagation,
// and weight update, and kept activations are scaled by 1/p ("inverted
// dropout") so inference uses the unmodified network.
//
// The paper's experiments set p = 0.05 to match the ~5% active sets of
// ALSH-approx (§8.4), which is why DropoutS accuracy collapses on harder
// datasets in Table 2 — at that rate the kept set is random and tiny.
func NewDropout(net *nn.Network, optim opt.Optimizer, p float64, g *rng.RNG) Method {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("core: dropout keep probability %v must be in (0,1]", p))
	}
	return newLoop("dropout", AxisColumns, net, optim, g, activeCols{pick: bernoulli{p}, scale: 1 / p})
}
