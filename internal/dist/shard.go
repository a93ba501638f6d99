package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"samplednn/internal/nn"
)

// shardRange returns the row interval [lo, hi) of shard s when a batch
// of rows rows is split into shards contiguous shards. The split is a
// pure function of (rows, shards) — never of the worker count — which
// is the first pillar of the determinism argument: the same batch
// always decomposes into the same shards.
func shardRange(rows, shards, s int) (lo, hi int) {
	return s * rows / shards, (s + 1) * rows / shards
}

// workerShards returns the shard interval [lo, hi) that rank r of w
// workers is responsible for computing. Which worker computes a shard
// is irrelevant to the result (the reduction is keyed by shard index,
// not by rank); this split just balances load.
func workerShards(shards, w, r int) (lo, hi int) {
	return r * shards / w, (r + 1) * shards / w
}

// newReducer returns a reducer with zeroed accumulators shaped like the
// network's layers. It lives as long as its coordinator: reset clears
// it for the next step, so no step allocates a gradient.
func newReducer(net *nn.Network) *reducer {
	acc := make([]nn.Grads, len(net.Layers))
	for i, l := range net.Layers {
		acc[i] = l.ZeroGrads()
	}
	return &reducer{acc: acc, pending: -1}
}

// reducer folds per-shard gradients into the global batch gradient.
// Shards MUST be offered in ascending shard index — Add enforces it —
// because float addition is not associative: a fixed fold order is the
// second pillar of the determinism argument. The weighting rows/total
// makes the result exactly the mean gradient over the full batch, so a
// single shard covering the whole batch reduces to scale 1.0 and the
// step degenerates bit-for-bit to the plain single-process step.
type reducer struct {
	acc     []nn.Grads
	loss    float64
	rows    int
	pending int // last shard index folded, -1 before the first
}

// reset zeroes the accumulators for a new step.
func (r *reducer) reset() {
	for _, g := range r.acc {
		clear(g.W.Data)
		clear(g.B)
	}
	r.loss, r.rows, r.pending = 0, 0, -1
}

// Add folds one shard's gradient, scaled by its share of the total
// batch rows, into the accumulator.
func (r *reducer) Add(index, rows, total int, loss float64, grads []nn.Grads) {
	if index <= r.pending {
		panic("dist: reducer offered shards out of ascending order")
	}
	if len(grads) != len(r.acc) {
		panic("dist: reducer offered mismatched layer count")
	}
	scale := float64(rows) / float64(total)
	for i, g := range grads {
		foldFloats(r.acc[i].W.Data, g.W.Data, scale)
		foldFloats(r.acc[i].B, g.B, scale)
	}
	r.folded(index, rows, scale*loss)
}

// foldFloats adds scale·g into acc, ascending.
func foldFloats(acc, g []float64, scale float64) {
	g = g[:len(acc)]
	for j := range acc {
		acc[j] += scale * g[j]
	}
}

// addWire is Add for a shard still in wire form: c stands on the
// gradient section of a gradReply payload that has passed its frame
// CRC, and each value goes from the payload bytes into the accumulator
// with the arithmetic of Add — acc += scale·g, ascending j — so the sum
// is the same bit for bit and the gradient is never materialized. What
// a peer sends is input, not a bug: an out-of-order shard or a section
// that does not match the model is an error here, where Add panics. An
// error can leave some layers folded; the caller abandons the step and
// the next one starts from reset.
func (r *reducer) addWire(index, rows, total int, loss float64, c *cursor) error {
	if index <= r.pending {
		return fmt.Errorf("dist: shard %d offered after shard %d", index, r.pending)
	}
	scale := float64(rows) / float64(total)
	err := walkGrads(c, r.acc, func(acc []float64, src []byte) {
		src = src[:8*len(acc)] // one bounds check, not one per value
		for j := range acc {
			acc[j] += scale * math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
		}
	})
	if err != nil {
		return err
	}
	r.folded(index, rows, scale*loss)
	return nil
}

func (r *reducer) folded(index, rows int, loss float64) {
	r.pending = index
	r.loss += loss
	r.rows += rows
}

// Result returns the reduced gradient and batch loss. total is the
// expected row count; Result panics if the folded shards do not tile
// the batch exactly (a missing or duplicated shard would silently skew
// the gradient otherwise).
func (r *reducer) Result(total int) (float64, []nn.Grads) {
	if r.rows != total {
		panic("dist: reduced shards do not tile the batch")
	}
	return r.loss, r.acc
}
