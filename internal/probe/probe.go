// Package probe measures error compounding in sampled feedforward
// passes, live, against the paper's §7 theory. Theorem 7.2 predicts that
// a network of depth k whose every layer drops a (1/(c+1)) mass fraction
// of its inner products accumulates a relative output error of
// ((c+1)/c)^k − 1: each layer multiplies the surviving error by the
// amplification factor (c+1)/c. The theorem is an upper-bound argument
// over a simplified model; whether real training runs track it is
// exactly what the probe checks.
//
// Every Every batches the probe replays the method's approximate forward
// pass (core.Method.ApproxForward) and the exact forward side by side on one
// fixed minibatch, and reports per-layer relative errors, the fitted
// per-layer growth factor, and the theory curve for comparison. The
// probe owns its RNG stream, and ApproxForward implementations are
// read-only, so enabling the probe does not change the trained weights
// by a single bit.
package probe

import (
	"math"

	"samplednn/internal/core"
	"samplednn/internal/obs/trace"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
	"samplednn/internal/theory"
)

// Measurement is one side-by-side comparison of the approximate and
// exact forward passes on the probe minibatch.
type Measurement struct {
	// Batch is the cumulative batch count at which the probe fired
	// (1-based, counted across epochs).
	Batch int `json:"batch"`
	// RelErr[ℓ] is ‖ĥ_ℓ − h_ℓ‖_F / ‖h_ℓ‖_F: layer ℓ's approximate
	// activation error relative to the exact activation.
	RelErr []float64 `json:"rel_err"`
	// ErrRatio[ℓ] is ‖h_ℓ − ĥ_ℓ‖_F / ‖ĥ_ℓ‖_F — the §7 "error ratio",
	// measured against the approximate value the way the theory states
	// it (for one layer it equals 1/c).
	ErrRatio []float64 `json:"err_ratio"`
	// MeanC is the empirical active/inactive mass ratio c implied by the
	// first layer's error ratio (c = 1/ErrRatio[0]); +Inf when the first
	// layer came out exact.
	MeanC float64 `json:"mean_c"`
	// Growth is the fitted per-layer error growth factor: the slope of
	// log(1 + RelErr[ℓ]) against layer depth, exponentiated. Theorem 7.2
	// predicts Growth ≈ (c+1)/c when every layer drops the same mass.
	Growth float64 `json:"growth"`
	// Theory[ℓ] is theory.ErrorRatio(MeanC, ℓ+1): the §7 prediction for
	// the cumulative error ratio after ℓ+1 approximated layers, derived
	// from the measured first-layer c. Empty when MeanC is not finite.
	Theory []float64 `json:"theory,omitempty"`
}

// Probe fires a measurement every Every batches. A nil *Probe is a
// no-op: Tick returns (nil, false) after one nil check, so the trainer
// holds a *Probe unconditionally and pays nothing when disabled.
type Probe struct {
	m     core.Method
	x     *tensor.Matrix
	g     *rng.RNG
	every int
	batch int
}

// New builds a probe over the method's approximate forward pass, firing
// every `every` batches on the fixed minibatch x. It returns nil when
// the method samples nothing (exact training has no approximation to
// probe), when every <= 0, or when x is empty — callers use the nil
// probe as the disabled state.
func New(m core.Method, x *tensor.Matrix, every int, seed uint64) *Probe {
	if m.Axis() == core.AxisNone || every <= 0 || x == nil || x.Rows == 0 {
		return nil
	}
	return &Probe{m: m, x: x, g: rng.New(seed), every: every}
}

// Tick advances the batch counter and, when the cadence fires, runs one
// measurement. On non-firing batches (and on a nil probe) it does no
// work and no allocation.
func (p *Probe) Tick() (*Measurement, bool) {
	if p == nil {
		return nil, false
	}
	p.batch++
	if p.batch%p.every != 0 {
		return nil, false
	}
	m := p.Measure()
	m.Batch = p.batch
	return m, true
}

// Measure runs the side-by-side comparison immediately, regardless of
// the cadence. The Batch field is left zero.
func (p *Probe) Measure() *Measurement {
	defer trace.Active().Begin("probe", "measure").End()
	layers := p.m.Net().Layers
	exact := p.m.Net().InferForwardLayers(p.x)
	approx := p.m.ApproxForward(p.x, p.g)

	m := &Measurement{
		RelErr:   make([]float64, len(layers)),
		ErrRatio: make([]float64, len(layers)),
	}
	diff := make([]float64, 0, len(exact[0].Data))
	for i := range layers {
		h, hat := exact[i], approx[i]
		diff = diff[:len(h.Data)]
		for k := range h.Data {
			diff[k] = hat.Data[k] - h.Data[k]
		}
		d := tensor.Norm(diff)
		m.RelErr[i] = safeRatio(d, tensor.Norm(h.Data))
		m.ErrRatio[i] = safeRatio(d, tensor.Norm(hat.Data))
	}
	m.MeanC = math.Inf(1)
	if m.ErrRatio[0] > 0 {
		m.MeanC = 1 / m.ErrRatio[0]
	}
	m.Growth = fitGrowth(m.RelErr)
	if !math.IsInf(m.MeanC, 0) && m.MeanC > 0 {
		m.Theory = make([]float64, len(layers))
		for k := range m.Theory {
			m.Theory[k] = theory.ErrorRatio(m.MeanC, k+1)
		}
	}
	return m
}

// safeRatio returns num/den, or 0 when the denominator vanishes (an
// all-zero exact activation has no meaningful relative error).
func safeRatio(num, den float64) float64 {
	if den == 0 { //lint:ignore float-equality exact-zero denominator guard; an all-zero activation has no relative error
		return 0
	}
	return num / den
}

// fitGrowth fits the per-layer error growth factor. Under Theorem 7.2
// the cumulative error after k layers is g^k − 1 for growth factor
// g = (c+1)/c, i.e. log(1 + err_k) = k·log g — a line through the
// origin in depth. The least-squares slope through the origin is
// Σ k·y_k / Σ k², and the growth factor is its exponential. Layers with
// zero error contribute y_k = 0, pulling the fit toward 1 (no growth).
func fitGrowth(relErr []float64) float64 {
	var num, den float64
	for i, r := range relErr {
		k := float64(i + 1)
		num += k * math.Log1p(r)
		den += k * k
	}
	if den == 0 { //lint:ignore float-equality exact-zero denominator guard for the least-squares fit
		return 1
	}
	return math.Exp(num / den)
}
