package core

import (
	"fmt"
	"io"
	"time"

	"samplednn/internal/binio"
	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// layerRule is what distinguishes one training method from another; the
// loop below owns everything else. A rule keeps no per-step state of its
// own — caches go into the layer and scratch it is handed, randomness
// comes from the RNG it is handed — so ApproxForward and ParallelALSH's
// workers can run the same rule beside a training step (repolint's
// readonly-forward check holds forward to it).
type layerRule interface {
	// forward evaluates layer i on x under the rule's sampling, leaving
	// in l's caches and sc whatever derive and products will need.
	forward(i int, l *nn.Layer, x *tensor.Matrix, g *rng.RNG, sc *layerScratch) *tensor.Matrix
	// derive turns dL/dA of a hidden layer's output into the dL/dz its
	// products consume (the output layer's dL/dz comes from the head).
	derive(l *nn.Layer, dA *tensor.Matrix, sc *layerScratch) *tensor.Matrix
	// products computes layer i's parameter gradients and dL/dA of the
	// layer below. A non-nil cols says the gradients are compact: they
	// cover exactly those columns, and only those may be updated.
	products(i int, l *nn.Layer, delta *tensor.Matrix, g *rng.RNG, sc *layerScratch) (grads nn.Grads, cols []int, dPrev *tensor.Matrix)
}

// layerScratch carries one layer's per-step state outside the layer
// itself, reused across steps to bound allocations.
type layerScratch struct {
	// Forward caches of a column-sampled layer (kernels.go).
	cols    []int          // active node set
	wsub    *tensor.Matrix // |S| x fanIn: gathered Wᵀ rows
	bsub    []float64      // |S| biases
	zsub    *tensor.Matrix // batch x |S| pre-activations
	asub    *tensor.Matrix // batch x |S| activations
	aFull   *tensor.Matrix // batch x fanOut activations, zero outside S
	in      *tensor.Matrix // cached layer input
	support []int          // scratch for the sparse-input kernel

	mask  *tensor.Matrix // standout's 0/1 mask
	grads nn.Grads       // full-shape gradient a compact one is scattered into
	query []int          // one row's hash candidates
	union []int          // a batch's candidates before deduplication
	// qs, when set, is a private lookup workspace: lookups through it
	// leave the shared index untouched (lanes, probe replays).
	qs *lsh.QueryScratch
}

// loop is the one training loop behind every Method: forward under a
// rule, loss, backward under a rule with each layer's update applied as
// soon as its gradients exist, then index upkeep — with the phase clock,
// the per-layer trace spans and the checkpoint blob attached once, here.
type loop struct {
	name  string
	axis  Axis
	net   *nn.Network
	optim opt.Optimizer
	// rule is the method's sampling rule; fwd and bwd are what the two
	// passes of a Step run under — rule itself, except that MC-approx's
	// Where leaves one of them exact (§10.1). ApproxForward runs rule.
	rule, fwd, bwd layerRule
	// g is the private sampling stream; nil for exact training, which
	// draws nothing and so has no run-time state to checkpoint.
	g  *rng.RNG
	sc []*layerScratch
	// index is ALSH's per-layer MIPS indexes and their upkeep; nil for
	// every other method (the hooks called on it are nil-safe no-ops).
	index *hashIndex
	// lanes are the shadows ParallelALSH's workers step; their sampling
	// streams are checkpointed after this loop's own state.
	lanes []*loop
	// untraced mutes the per-layer spans: lanes run concurrently and
	// trace one "alsh/sample" span per row instead.
	untraced bool

	timing Timing
	lapAt  time.Time
}

func newLoop(name string, axis Axis, net *nn.Network, optim opt.Optimizer, g *rng.RNG, rule layerRule) *loop {
	if net == nil || optim == nil || (g == nil && axis != AxisNone) {
		panic(fmt.Sprintf("core: %s needs a network, an optimizer and (to sample) an RNG", name))
	}
	m := &loop{name: name, axis: axis, net: net, optim: optim, g: g, rule: rule, fwd: rule, bwd: rule}
	m.sc = make([]*layerScratch, len(net.Layers))
	for i := range m.sc {
		m.sc[i] = &layerScratch{}
	}
	return m
}

// Name returns the method's name.
func (m *loop) Name() string { return m.name }

// Axis returns the sampled weight-matrix dimension.
func (m *loop) Axis() Axis { return m.axis }

// Net returns the wrapped network.
func (m *loop) Net() *nn.Network { return m.net }

// Optimizer returns the wrapped optimizer.
func (m *loop) Optimizer() opt.Optimizer { return m.optim }

// Timing returns the cumulative phase timings.
func (m *loop) Timing() Timing { return m.timing }

// ResetTiming zeroes the timings and the active-set-size distributions.
func (m *loop) ResetTiming() {
	m.timing = Timing{}
	if m.index != nil {
		for _, d := range m.index.actDists {
			d.Reset()
		}
	}
}

// lap charges the wall time since the previous lap to phase; a nil
// phase just starts the clock. Every Timing figure comes through here.
func (m *loop) lap(phase *time.Duration) {
	now := time.Now() //lint:ignore wall-clock phase cost accounting (core.Timing); reported, never fed back into training
	if phase != nil {
		*phase += now.Sub(m.lapAt)
	}
	m.lapAt = now
}

// exactAt reports whether layer i stays exact whatever the rule: column
// sampling drops nodes, and the output layer's nodes are the classes.
// (Row sampling estimates the output layer's products too.)
func (m *loop) exactAt(i int) bool {
	return i == len(m.net.Layers)-1 && m.axis == AxisColumns
}

// ruleAt returns the rule layer i runs under in a pass whose rule is r.
func (m *loop) ruleAt(r layerRule, i int) layerRule {
	if m.exactAt(i) {
		return dense{}
	}
	return r
}

// spanName names a layer's trace span: "sampled" when only a compact
// active set is computed, "layer" for a full-width layer.
func spanName(r layerRule) string {
	if _, ok := r.(activeCols); ok {
		return "sampled"
	}
	return "layer"
}

// Step performs one training pass under the method's rule.
func (m *loop) Step(x *tensor.Matrix, y []int) float64 { return m.step(x, y, nil) }

// TryStep is Step: the sequential loop has no recoverable failure.
func (m *loop) TryStep(x *tensor.Matrix, y []int) (float64, error) { return m.step(x, y, nil), nil }

// step is the loop. With collect set, each layer's gradients are stored
// there instead of being applied (the GradComputer export).
func (m *loop) step(x *tensor.Matrix, y []int, collect []nn.Grads) float64 {
	tr := trace.Active()
	if m.untraced {
		tr = nil
	}
	layers := m.net.Layers
	last := len(layers) - 1

	m.lap(nil)
	a := x
	for i, l := range layers {
		r := m.ruleAt(m.fwd, i)
		sp := tr.BeginLayer("forward", spanName(r), i)
		a = r.forward(i, l, a, m.g, m.sc[i])
		sp.End()
		m.index.observe(i, len(m.sc[i].cols))
	}
	loss := m.net.Head.Loss(a, y)
	m.lap(&m.timing.Forward)

	// A layer's update never feeds the layers below it (they see dPrev,
	// computed from the pre-update weights), so applying it at once
	// equals applying all updates after the pass.
	delta := m.net.Head.Delta(a, y)
	var dA *tensor.Matrix
	for i := last; i >= 0; i-- {
		l := layers[i]
		r := m.ruleAt(m.bwd, i)
		sp := tr.BeginLayer("backward", spanName(r), i)
		if i < last {
			delta = r.derive(l, dA, m.sc[i])
		}
		grads, cols, dPrev := r.products(i, l, delta, m.g, m.sc[i])
		if collect != nil {
			collect[i] = grads
		} else {
			m.apply(i, l, grads, cols)
		}
		dA = dPrev
		sp.End()
	}
	m.lap(&m.timing.Backward)

	if m.index != nil {
		m.index.maintain(m.net, x.Rows)
		m.lap(&m.timing.Maintain)
	}
	return loss
}

// apply feeds layer i's gradients through the optimizer: densely, or —
// when the rule sampled columns — scattered into the layer's full-shape
// scratch and applied over those columns only.
func (m *loop) apply(i int, l *nn.Layer, grads nn.Grads, cols []int) {
	if cols == nil {
		m.optim.Step(i, l.W, l.B, grads)
		return
	}
	m.sc[i].grads = scatterGrads(l, grads.W, grads.B, cols, m.sc[i].grads)
	m.applyCols(i, l, cols)
}

// applyCols steps the listed columns of layer i from its full-shape
// gradient scratch, clears them for reuse, and reports them to the index
// as needing a re-hash.
func (m *loop) applyCols(i int, l *nn.Layer, cols []int) {
	m.optim.StepCols(i, l.W, l.B, m.sc[i].grads, cols)
	clearGradCols(m.sc[i].grads, cols)
	m.index.touch(i, cols)
}

// privateScratch returns scratch for layer i that shares nothing with
// the training step's — a lane's, or a probe replay's.
func (m *loop) privateScratch(i int) *layerScratch {
	sc := &layerScratch{}
	if m.index != nil && i < len(m.index.indexes) {
		sc.qs = m.index.indexes[i].NewQueryScratch()
	}
	return sc
}

// shadow returns a loop over the same weights, rule and optimizer whose
// steps share nothing mutable with m's: its own layer headers (forward
// caches), scratch and sampling stream g, and no index upkeep. Run in
// collect mode it computes a batch's gradients on read-only weights —
// one of ParallelALSH's worker lanes.
func (m *loop) shadow(g *rng.RNG) *loop {
	net := &nn.Network{Head: m.net.Head}
	for _, l := range m.net.Layers {
		header := *l
		net.Layers = append(net.Layers, &header)
	}
	s := newLoop(m.name, m.axis, net, m.optim, g, m.rule)
	for i := range s.sc {
		s.sc[i] = m.privateScratch(i)
	}
	s.untraced = true
	return s
}

// ApproxForward replays the rule's feedforward pass on x: the per-layer
// rule a Step runs, but drawing from g, caching into private scratch and
// a local copy of each layer header, and touching no counter or index.
func (m *loop) ApproxForward(x *tensor.Matrix, g *rng.RNG) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(m.net.Layers))
	a := x
	for i, l := range m.net.Layers {
		local := *l // forward caches land in the copy; W and B are shared and only read
		if m.exactAt(i) {
			a = dense{}.forward(i, &local, a, g, nil)
		} else {
			a = m.rule.forward(i, &local, a, g, m.privateScratch(i))
		}
		out[i] = a
	}
	return out
}

// PredictBatch returns the predicted class per row of x.
func (m *loop) PredictBatch(x *tensor.Matrix) []int {
	if s, ok := m.rule.(standout); ok {
		return s.predict(m.net, x)
	}
	return m.net.Predict(x)
}

// RebuildIndexes refits every index's transform scaling and re-hashes
// all columns — the full rebuild typically run between epochs — charged
// to Maintain.
func (m *loop) RebuildIndexes() {
	if m.index == nil {
		return
	}
	m.lap(nil)
	for i, idx := range m.index.indexes {
		idx.Rebuild(m.net.Layers[i].W)
	}
	m.lap(&m.timing.Maintain)
}

// SamplingSnapshot exports the index's diagnostics (nil without one).
func (m *loop) SamplingSnapshot() *SamplingSnapshot { return m.index.snapshot(m.net, m.sc) }

// methodStateV1 is the one-byte version that starts each state blob.
const methodStateV1 = 1

// SaveState serializes the sampling stream's position, then the index's
// maintenance counters and the lanes' streams when there are any.
func (m *loop) SaveState(w io.Writer) error {
	if m.g == nil {
		return nil
	}
	if err := binio.WriteU8(w, methodStateV1); err != nil {
		return err
	}
	if err := binio.WriteBytes(w, m.g.Save()); err != nil {
		return err
	}
	if m.index != nil {
		for _, v := range []int{m.index.samples, m.index.lastUpd} {
			if err := binio.WriteI64(w, int64(v)); err != nil {
				return err
			}
		}
	}
	if len(m.lanes) == 0 {
		return nil
	}
	if err := binio.WriteU32(w, uint32(len(m.lanes))); err != nil {
		return err
	}
	for _, lane := range m.lanes {
		if err := binio.WriteBytes(w, lane.g.Save()); err != nil {
			return err
		}
	}
	return nil
}

// restoreStream reads one length-prefixed RNG blob into g.
func restoreStream(r io.Reader, g *rng.RNG) error {
	blob, err := binio.ReadBytes(r)
	if err != nil {
		return err
	}
	return g.Restore(blob)
}

// LoadState restores what SaveState wrote and rebuilds every hash index
// from the current weights (the hash functions themselves are reproduced
// by constructing the method with the same seed). The lane count must
// match the one the state was saved with.
func (m *loop) LoadState(r io.Reader) error {
	if m.g == nil {
		if n, _ := io.Copy(io.Discard, r); n > 0 {
			return fmt.Errorf("core: checkpoint carries method state but %s keeps none", m.name)
		}
		return nil
	}
	v, err := binio.ReadU8(r)
	if err != nil {
		return fmt.Errorf("core: %s state header: %w", m.name, err)
	}
	if v != methodStateV1 {
		return fmt.Errorf("core: %s state version %d, this build reads %d", m.name, v, methodStateV1)
	}
	if err := restoreStream(r, m.g); err != nil {
		return err
	}
	if m.index != nil {
		for _, counter := range []*int{&m.index.samples, &m.index.lastUpd} {
			v, err := binio.ReadI64(r)
			if err != nil {
				return err
			}
			*counter = int(v)
		}
		m.RebuildIndexes()
	}
	if len(m.lanes) == 0 {
		return nil
	}
	n, err := binio.ReadU32(r)
	if err != nil {
		return err
	}
	if int(n) != len(m.lanes) {
		return fmt.Errorf("core: checkpoint has %d worker streams, trainer has %d workers", n, len(m.lanes))
	}
	for _, lane := range m.lanes {
		if err := restoreStream(r, lane.g); err != nil {
			return err
		}
	}
	return nil
}
