package core

import (
	"fmt"
	"sort"

	"samplednn/internal/approxmm"
	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// MCWhere selects which passes MC-approx approximates. The paper's
// evaluated configuration is backward-only (§10.1): Adelman et al. found
// feedforward approximation fails in practice for MLPs, so approximation
// is applied to the two backpropagation products per layer.
type MCWhere int

// Approximation placements.
const (
	// MCBackward approximates only backpropagation (the paper's MC-approx).
	MCBackward MCWhere = iota
	// MCForward approximates only the feedforward pass — the variant the
	// §7/§10.1 analysis predicts will fail; kept for the ablation.
	MCForward
	// MCBoth approximates both passes — biased per Adelman et al.
	MCBoth
)

// String names the placement.
func (w MCWhere) String() string {
	if names := [...]string{"backward", "forward", "both"}; w >= 0 && int(w) < len(names) {
		return names[w]
	}
	return fmt.Sprintf("MCWhere(%d)", int(w))
}

// MCEstimator selects how column-row pairs are drawn, mirroring the
// approxmm estimators: the paper's MC-approx uses the Adelman Bernoulli
// scheme (§6.2), the Drineas CR scheme (§6.1) is its predecessor, and
// deterministic top-k is the biased low-variance alternative.
type MCEstimator int

// Supported estimators.
const (
	// MCBernoulli keeps pair i with probability p_i = min(k·w_i/Σw, 1),
	// scaled by 1/p_i (Eq. 7) — the paper's configuration.
	MCBernoulli MCEstimator = iota
	// MCCR draws k pairs i.i.d. with probability w_i/Σw, each scaled by
	// 1/(k·p_i) (Eq. 6).
	MCCR
	// MCTopK keeps the k heaviest pairs unscaled (biased).
	MCTopK
)

// String names the estimator.
func (e MCEstimator) String() string {
	if names := [...]string{"bernoulli", "cr", "topk"}; e >= 0 && int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("MCEstimator(%d)", int(e))
}

// MCConfig tunes the Monte-Carlo trainer.
type MCConfig struct {
	// K is the column-row sample count per approximated product
	// (paper default: 10, with batch size 20).
	K int
	// Where selects the approximated passes; default MCBackward.
	Where MCWhere
	// Estimator selects the sampling scheme; default MCBernoulli.
	Estimator MCEstimator
}

// rowSampled is MC-approx's rule (Adelman et al., §6.2; "sampling from
// the previous layer", §4.2): every node is kept, but a layer's matrix
// products are estimated by sampling column-row pairs with the Eq. 7
// probabilities p_i ∝ ||A[:,i]||·||B[i,:]|| and rescaling survivors by
// 1/p_i, which keeps the estimate unbiased.
//
// In the default backward-only placement each layer approximates
//
//	∂L/∂a_prev = delta · Wᵀ   — sampling over the layer's nodes, and
//	∂L/∂W      = aᵀ · delta   — sampling over the batch dimension,
//
// which is why the method needs a real mini-batch: with batch size 1 the
// second product has a single column-row pair, so sampling degenerates
// while the probability computation still pays a full pass over W — the
// §9.3 finding that MC-approxS is slower than StandardS.
type rowSampled struct {
	dense
	cfg MCConfig
}

// NewMCApprox wraps net in Monte-Carlo approximate training; cfg.Where
// decides which passes of a Step run under the rule.
func NewMCApprox(net *nn.Network, optim opt.Optimizer, cfg MCConfig, g *rng.RNG) Method {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	m := newLoop("mc", AxisRows, net, optim, g, rowSampled{cfg: cfg})
	switch cfg.Where {
	case MCBackward:
		m.fwd = dense{}
	case MCForward:
		// Exact backpropagation through the approximate forward caches.
		m.bwd = dense{}
	}
	return m
}

// forward estimates z = x·W + b by sampling the inner dimension (the
// previous layer's nodes), then applies the activation exactly. The
// layer caches hold the approximate values, which is precisely the
// error-compounding mechanism Theorem 7.2 analyzes. The paper's
// backward-only MC-approx never trains through it; the probe runs it to
// show what error it *would* compound (the §10.1 rationale).
func (m rowSampled) forward(_ int, l *nn.Layer, x *tensor.Matrix, g *rng.RNG, _ *layerScratch) *tensor.Matrix {
	l.In = x
	l.Z = m.estimateProduct(x, l.W, g)
	l.Z.AddRowVector(l.B)
	l.A = l.Act.Forward(l.Z)
	return l.A
}

// products estimates both backward products; the input layer's
// ∂L/∂a_prev is neither needed nor drawn for.
func (m rowSampled) products(i int, l *nn.Layer, delta *tensor.Matrix, g *rng.RNG, _ *layerScratch) (nn.Grads, []int, *tensor.Matrix) {
	grads := m.estimateGradW(l, delta, g)
	var dPrev *tensor.Matrix
	if i > 0 {
		dPrev = m.estimateDeltaPrev(l, delta, g)
	}
	return grads, nil, dPrev
}

// samplePairs draws shared-dimension indices and their rescaling factors
// according to the configured estimator, using g for randomness. Indices
// may repeat only in the scales (duplicate CR draws are merged).
func (m rowSampled) samplePairs(w []float64, k int, g *rng.RNG) (idx []int, scales []float64) {
	switch m.cfg.Estimator {
	case MCCR:
		table, err := rng.NewAlias(w)
		if err != nil {
			return nil, nil // all-zero signal: the product is zero
		}
		agg := make(map[int]float64, k)
		inv := 1 / float64(k)
		for t := 0; t < k; t++ {
			i := table.Draw(g)
			agg[i] += inv / table.Prob(i)
		}
		for i, s := range agg {
			idx = append(idx, i)
			scales = append(scales, s)
		}
		return idx, scales
	case MCTopK:
		order := make([]int, len(w))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return w[order[x]] > w[order[y]] })
		if k > len(order) {
			k = len(order)
		}
		idx = order[:k]
		scales = make([]float64, k)
		for i := range scales {
			scales[i] = 1
		}
		return idx, scales
	default: // MCBernoulli
		p := approxmm.KeepProbabilities(w, k)
		for i, pi := range p {
			if pi <= 0 {
				continue
			}
			if pi >= 1 || g.Bernoulli(pi) {
				idx = append(idx, i)
				scales = append(scales, 1/pi)
			}
		}
		return idx, scales
	}
}

// estimateProduct returns the sampled estimate of a·b over their shared
// dimension, drawing the sample from g.
func (m rowSampled) estimateProduct(a, b *tensor.Matrix, g *rng.RNG) *tensor.Matrix {
	defer trace.Active().Begin("amm", "product").WithArg("k", int64(m.cfg.K)).End()
	// Pair weights over the shared dimension.
	ca := a.ColNorms()
	rb := b.RowNorms()
	w := make([]float64, len(ca))
	for i := range w {
		w[i] = ca[i] * rb[i]
	}
	idx, scales := m.samplePairs(w, m.cfg.K, g)
	out := tensor.New(a.Rows, b.Cols)
	for s, i := range idx {
		scale := scales[s]
		brow := b.RowView(i)
		for r := 0; r < a.Rows; r++ {
			av := a.Data[r*a.Cols+i] * scale
			if av != 0 { //lint:ignore float-equality structural-zero skip pinned by estimator semantics; compares exact zeros, not rounded values
				tensor.Axpy(av, brow, out.RowView(r))
			}
		}
	}
	return out
}

// estimateGradW estimates ∂L/∂W = Inᵀ·delta by sampling the batch
// dimension: pair weights are ||In_row_i||·||delta_row_i||. With batch
// size ≤ K the estimate is exact (every pair kept), reproducing the
// paper's observation that the stochastic setting gets no benefit here.
func (m rowSampled) estimateGradW(l *nn.Layer, delta *tensor.Matrix, g *rng.RNG) nn.Grads {
	defer trace.Active().Begin("amm", "grad-w").WithArg("k", int64(m.cfg.K)).End()
	batch := delta.Rows
	w := make([]float64, batch)
	for i := 0; i < batch; i++ {
		w[i] = tensor.Norm(l.In.RowView(i)) * tensor.Norm(delta.RowView(i))
	}
	idx, scales := m.samplePairs(w, m.cfg.K, g)
	gw := tensor.New(l.FanIn(), l.FanOut())
	gb := make([]float64, l.FanOut())
	for s, i := range idx {
		scale := scales[s]
		inRow := l.In.RowView(i)
		dRow := delta.RowView(i)
		for r, av := range inRow {
			if av != 0 { //lint:ignore float-equality structural-zero skip pinned by estimator semantics; compares exact zeros, not rounded values
				tensor.Axpy(av*scale, dRow, gw.RowView(r))
			}
		}
		tensor.Axpy(scale, dRow, gb)
	}
	return nn.Grads{W: gw, B: gb}
}

// estimateDeltaPrev estimates ∂L/∂a_prev = delta·Wᵀ by sampling this
// layer's nodes: pair weights are ||delta[:,j]||·||W[:,j]||. Computing
// the W column norms costs a full pass over W per step — the fixed
// overhead that dominates when the batch is small (§9.3).
func (m rowSampled) estimateDeltaPrev(l *nn.Layer, delta *tensor.Matrix, g *rng.RNG) *tensor.Matrix {
	defer trace.Active().Begin("amm", "grad-prev").WithArg("k", int64(m.cfg.K)).End()
	cd := delta.ColNorms()
	cw := l.W.ColNorms()
	w := make([]float64, len(cd))
	for j := range w {
		w[j] = cd[j] * cw[j]
	}
	idx, scales := m.samplePairs(w, m.cfg.K, g)
	out := tensor.New(delta.Rows, l.FanIn())
	col := make([]float64, l.FanIn())
	for s, j := range idx {
		scale := scales[s]
		// col = W[:,j]; out_row_i += delta[i][j]·scale · col.
		for i := 0; i < l.FanIn(); i++ {
			col[i] = l.W.Data[i*l.W.Cols+j]
		}
		for i := 0; i < delta.Rows; i++ {
			dv := delta.Data[i*delta.Cols+j] * scale
			if dv != 0 { //lint:ignore float-equality structural-zero skip pinned by estimator semantics; compares exact zeros, not rounded values
				tensor.Axpy(dv, col, out.RowView(i))
			}
		}
	}
	return out
}
