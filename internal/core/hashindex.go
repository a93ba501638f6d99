package core

import (
	"fmt"
	"slices"

	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// ALSHConfig tunes the hash-based node sampler.
type ALSHConfig struct {
	// Params are the LSH index hyperparameters (paper: K=6, L=5, m=3).
	Params lsh.Params
	// MinActive floors the active-set size per layer; when the hash
	// lookup returns fewer candidates, random nodes pad the set (the
	// fallback of the original implementation). Zero means max(4, n/100).
	MinActive int
	// MaxActiveFrac caps the active set at this fraction of the layer,
	// keeping the cost bounded when buckets are crowded. Zero means no
	// cap.
	MaxActiveFrac float64
	// EarlyRebuildEvery and LateRebuildEvery give the hash-maintenance
	// cadence in samples: the paper re-hashes every 100 samples for the
	// first 10000 samples and every 1000 after (§9.2). Zero selects those
	// defaults.
	EarlyRebuildEvery, LateRebuildEvery, EarlyPhaseSamples int
}

func (c *ALSHConfig) setDefaults() {
	if c.Params == (lsh.Params{}) {
		c.Params = lsh.DefaultParams()
	}
	if c.EarlyRebuildEvery == 0 {
		c.EarlyRebuildEvery = 100
	}
	if c.LateRebuildEvery == 0 {
		c.LateRebuildEvery = 1000
	}
	if c.EarlyPhaseSamples == 0 {
		c.EarlyPhaseSamples = 10000
	}
}

// hashIndex is ALSH-approx's column picker (Spring and Shrivastava,
// §5.2) with the upkeep it needs from the loop: every hidden layer owns
// a MIPS index over the columns of its weight matrix; the incoming
// activation vector queries it; the union of colliding columns across L
// tables becomes the layer's active node set. Updated columns are
// re-hashed on the paper's growing cadence. The hooks the loop calls on
// every method's behalf do nothing on a nil receiver: only ALSH has one.
type hashIndex struct {
	cfg ALSHConfig
	// One entry per hidden layer (the output layer stays exact).
	indexes []*lsh.MIPSIndex
	minAct  []int
	touched []map[int]struct{} // columns updated since last re-hash
	// actDists[i] records layer i's active-set sizes since the last
	// ResetTiming.
	actDists []*obs.Distribution
	samples  int // training samples processed
	lastUpd  int // samples count at last re-hash
}

// NewALSHApprox builds per-hidden-layer MIPS indexes over net's weights
// and trains through them: forward, backward, and the optimizer step run
// only on each layer's looked-up active set, with no rescaling.
func NewALSHApprox(net *nn.Network, optim opt.Optimizer, cfg ALSHConfig, g *rng.RNG) (Method, error) {
	return newALSHLoop("alsh", net, optim, cfg, g)
}

func newALSHLoop(name string, net *nn.Network, optim opt.Optimizer, cfg ALSHConfig, g *rng.RNG) (*loop, error) {
	if net == nil || g == nil {
		panic("core: " + name + " needs a network and an RNG")
	}
	cfg.setDefaults()
	h := &hashIndex{cfg: cfg}
	for i, l := range net.Layers[:len(net.Layers)-1] {
		idx, err := lsh.NewMIPSIndex(l.FanIn(), l.FanOut(), cfg.Params, g.Split())
		if err != nil {
			return nil, fmt.Errorf("core: layer %d index: %w", i, err)
		}
		idx.Rebuild(l.W)
		minAct := cfg.MinActive
		if minAct <= 0 {
			minAct = max(4, l.FanOut()/100)
		}
		h.indexes = append(h.indexes, idx)
		h.minAct = append(h.minAct, minAct)
		h.touched = append(h.touched, make(map[int]struct{}))
		h.actDists = append(h.actDists, obs.NewDistribution())
	}
	m := newLoop(name, AxisColumns, net, optim, g, activeCols{pick: h, scale: 1})
	m.index = h
	return m, nil
}

// pick queries layer i's index with every row of x and unions the
// candidates in ascending order (a fixed order keeps padding, truncation
// and summation reproducible), then applies the floor and the cap.
func (h *hashIndex) pick(i int, l *nn.Layer, x *tensor.Matrix, g *rng.RNG, sc *layerScratch) []int {
	idx := h.indexes[i]
	cands := sc.lookup(idx, x.RowView(0))
	if x.Rows > 1 {
		sc.union = append(sc.union[:0], cands...)
		for r := 1; r < x.Rows; r++ {
			sc.union = append(sc.union, sc.lookup(idx, x.RowView(r))...)
		}
		slices.Sort(sc.union)
		cands = slices.Compact(sc.union)
	}
	return padActive(cands, l.FanOut(), h.minAct[i], h.cfg.MaxActiveFrac, g)
}

// lookup returns idx's candidates for one input row, ascending, in a
// buffer the next lookup reuses. Through a private workspace the index
// is left untouched; otherwise the query is counted and traced.
func (sc *layerScratch) lookup(idx *lsh.MIPSIndex, row []float64) []int {
	if sc.qs != nil {
		sc.query = idx.QueryWith(sc.qs, row, sc.query)
	} else {
		sc.query = idx.Query(row, sc.query)
	}
	return sc.query
}

// padActive copies cols, truncates it at the cap, and pads it with
// distinct random nodes up to the floor.
func padActive(cols []int, n, minActive int, maxFrac float64, g *rng.RNG) []int {
	out := append([]int(nil), cols...)
	if maxFrac > 0 {
		limit := int(maxFrac * float64(n))
		if limit < minActive {
			limit = minActive
		}
		if len(out) > limit {
			g.Shuffle(out)
			out = out[:limit]
		}
	}
	for len(out) < minActive {
		if j := g.IntN(n); !slices.Contains(out, j) {
			out = append(out, j)
		}
	}
	return out
}

// observe records one active-set size for layer i, if it has an index.
func (h *hashIndex) observe(i, size int) {
	if h != nil && i < len(h.actDists) {
		h.actDists[i].Observe(int64(size))
	}
}

// touch marks layer i's updated columns as needing a re-hash.
func (h *hashIndex) touch(i int, cols []int) {
	if h == nil {
		return
	}
	for _, c := range cols {
		h.touched[i][c] = struct{}{}
	}
}

// maintain counts the step's samples and re-hashes updated columns on
// the paper's growing cadence: every EarlyRebuildEvery samples for the
// first EarlyPhaseSamples, then every LateRebuildEvery.
func (h *hashIndex) maintain(net *nn.Network, samples int) {
	h.samples += samples
	every := h.cfg.EarlyRebuildEvery
	if h.samples > h.cfg.EarlyPhaseSamples {
		every = h.cfg.LateRebuildEvery
	}
	if h.samples-h.lastUpd < every {
		return
	}
	h.lastUpd = h.samples
	for i, idx := range h.indexes {
		if len(h.touched[i]) == 0 {
			continue
		}
		cols := make([]int, 0, len(h.touched[i]))
		for c := range h.touched[i] {
			cols = append(cols, c)
		}
		idx.UpdateColumns(net.Layers[i].W, cols)
		clear(h.touched[i])
	}
}

// snapshot exports the sampling diagnostics; the most recent step's
// active sets are read from the loop's scratch sc.
func (h *hashIndex) snapshot(net *nn.Network, sc []*layerScratch) *SamplingSnapshot {
	if h == nil {
		return nil
	}
	s := &SamplingSnapshot{}
	for i, idx := range h.indexes {
		s.ActiveFraction += float64(len(sc[i].cols)) / float64(net.Layers[i].FanOut())
		s.ActiveSets = append(s.ActiveSets, h.actDists[i].Snapshot())
		s.Buckets = append(s.Buckets, idx.BucketStats())
		s.IndexBytes += idx.MemoryFootprint()
	}
	if len(h.indexes) > 0 {
		s.ActiveFraction /= float64(len(h.indexes))
	}
	return s
}
