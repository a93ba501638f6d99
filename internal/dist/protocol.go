// Package dist implements fault-tolerant sharded data-parallel training:
// a coordinator embedded in the training process plus N worker processes
// connected over TCP, exchanging binio frames (CRC-guarded, sequence-
// numbered) and performing synchronous SGD with a deterministic
// all-reduce.
//
// Determinism is structural, not incidental. Every step's global batch
// is split into S contiguous row shards — S is a run constant,
// independent of the worker count — and each shard's gradient is an
// exact forward/backward over just those rows. The coordinator reduces
// the per-shard gradients sequentially in ascending shard index with a
// fixed rows/batch weighting, so the reduced gradient is bit-identical
// no matter how many workers computed the shards, which worker computed
// which shard, or in what order replies arrived. Coordinator and
// workers all apply the identical reduced gradient to identical
// replicas (verified by weight CRC on every commit), so a run with
// workers=4 produces byte-for-byte the weights of a workers=0 run on
// the same seed — the property the fault-injection integration test
// pins.
//
// Robustness: every connection read and write carries a deadline, RPCs
// retry with capped exponential backoff plus seeded jitter, a corrupt
// frame (caught by the binio payload CRC) is retried rather than
// trusted — its payload never leaves frameConn.recv —, a frame longer
// than its connection may carry (64 bytes before a valid hello) is
// refused on its header, before anything is allocated for it, and a
// worker crash or timeout aborts the step, respawns the
// worker, and rejoins it from an SNCK checkpoint carrying the in-flight
// epoch's batch permutation. The FaultPlan hook injects exactly these
// failures for tests.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"samplednn/internal/binio"
	"samplednn/internal/dataset"
	"samplednn/internal/nn"
)

// Frame types. Worker→coordinator reply payloads all begin with
// epoch (u32) then step (u32) so the coordinator can order frames
// without fully decoding them.
const (
	msgHello uint8 = iota + 1
	msgWelcome
	msgSync
	msgSyncAck
	msgGradRequest
	msgGradReply
	msgCommit
	msgCommitAck
	msgShutdown
	msgError
)

// Error codes carried by msgError.
const (
	// errRetryable marks a transient failure (corrupt frame received);
	// the sender kept its state and the RPC may be resent.
	errRetryable uint8 = 1
	// errDesync marks a position disagreement; the worker needs a Sync.
	errDesync uint8 = 2
	// errFatal marks an unrecoverable worker-side failure.
	errFatal uint8 = 3
)

// A message renders its payload by appending to a buffer the
// connection owns (wireFrame.set): every message has exactly one
// encoder, and none builds a buffer of its own.
type message interface {
	appendTo(b []byte) []byte
}

func appendU32(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendBytes appends a uint32 length prefix and the bytes.
func appendBytes(b, p []byte) []byte { return append(appendU32(b, len(p)), p...) }

func appendString(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }

// cursor reads little-endian fields off a received payload. The first
// read past the end sets err; every later read returns zero, so a
// decoder checks once, after its last field.
type cursor struct {
	p   []byte
	err error
}

// take returns the next n bytes, aliasing the payload.
func (c *cursor) take(n int) []byte {
	if c.err == nil && (n < 0 || n > len(c.p)) {
		c.err = io.ErrUnexpectedEOF
	}
	if c.err != nil {
		return nil
	}
	b := c.p[:n:n]
	c.p = c.p[n:]
	return b
}

func (c *cursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) int() int { return int(c.u32()) }

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// bytes reads a length-prefixed blob. It aliases the payload: valid
// until the connection's next recv.
func (c *cursor) bytes() []byte { return c.take(c.int()) }

func (c *cursor) str() string { return string(c.bytes()) }

// hello is the worker's opening message.
type hello struct {
	// Rank is the rank assigned at spawn time (from the environment);
	// the coordinator validates it against its table.
	Rank int
	// PID is the worker's process id, journaled on join.
	PID int
}

func (h *hello) appendTo(b []byte) []byte {
	b = appendU32(b, h.Rank)
	return binary.LittleEndian.AppendUint64(b, uint64(h.PID))
}

func decodeHello(p []byte) (*hello, error) {
	c := cursor{p: p}
	h := &hello{Rank: c.int(), PID: int(c.u64())}
	return h, c.err
}

// welcome carries everything a worker needs to reconstruct the
// coordinator's dataset and method skeleton locally. The mutable state
// (weights, optimizer accumulators, RNG position, batch permutation)
// arrives separately in the first sync.
type welcome struct {
	Rank      int
	Spec      dataset.Spec
	DataSeed  uint64
	MaxTrain  int
	MaxTest   int
	MaxVal    int
	BatchSize int
	Shards    int
	Method    string
	Optimizer string
	LR        float64
	// Run is the run identifier (obs.RunID) every process in the run
	// stamps on its journal records, so merged journals correlate.
	Run uint64
	// SnapEvery is the commit-ack cadence (every Nth) at which the
	// worker piggybacks its metrics-registry snapshot; sync acks always
	// carry one. Zero disables piggybacking.
	SnapEvery int
}

func (w *welcome) appendTo(b []byte) []byte {
	b = appendU32(b, w.Rank)
	b = appendString(b, w.Spec.Name)
	for _, v := range []int{w.Spec.Width, w.Spec.Height, w.Spec.Channels, w.Spec.Classes, w.Spec.Train, w.Spec.Test, w.Spec.Val} {
		b = appendU32(b, v)
	}
	b = appendF64(b, w.Spec.Difficulty)
	b = binary.LittleEndian.AppendUint64(b, w.DataSeed)
	for _, v := range []int{w.MaxTrain, w.MaxTest, w.MaxVal, w.BatchSize, w.Shards} {
		b = appendU32(b, v)
	}
	b = appendString(b, w.Method)
	b = appendString(b, w.Optimizer)
	b = appendF64(b, w.LR)
	b = binary.LittleEndian.AppendUint64(b, w.Run)
	return appendU32(b, w.SnapEvery)
}

func decodeWelcome(p []byte) (*welcome, error) {
	c := cursor{p: p}
	w := &welcome{}
	w.Rank = c.int()
	w.Spec.Name = c.str()
	for _, dst := range []*int{&w.Spec.Width, &w.Spec.Height, &w.Spec.Channels, &w.Spec.Classes, &w.Spec.Train, &w.Spec.Test, &w.Spec.Val} {
		*dst = c.int()
	}
	w.Spec.Difficulty = c.f64()
	w.DataSeed = c.u64()
	for _, dst := range []*int{&w.MaxTrain, &w.MaxTest, &w.MaxVal, &w.BatchSize, &w.Shards} {
		*dst = c.int()
	}
	w.Method = c.str()
	w.Optimizer = c.str()
	w.LR = c.f64()
	w.Run = c.u64()
	w.SnapEvery = c.int()
	if c.err != nil {
		return nil, fmt.Errorf("dist: decoding welcome: %w", c.err)
	}
	return w, nil
}

// syncMsg pushes the coordinator's full state to a worker: the position
// the worker must stand at (about to compute step Step of epoch Epoch)
// and an SNCK checkpoint blob carrying weights, optimizer state, the
// RNG stream, and the in-flight epoch's batch permutation.
type syncMsg struct {
	Epoch int
	Step  int
	Blob  []byte
}

func (s *syncMsg) appendTo(b []byte) []byte {
	b = appendU32(b, s.Epoch)
	b = appendU32(b, s.Step)
	return appendBytes(b, s.Blob)
}

func decodeSync(p []byte) (*syncMsg, error) {
	c := cursor{p: p}
	s := &syncMsg{Epoch: c.int(), Step: c.int(), Blob: c.bytes()}
	return s, c.err
}

// posAck is the common shape of syncAck and commitAck: a position plus
// the worker's post-operation weight CRC, the per-commit replica-drift
// detector. Snap optionally piggybacks the worker's metrics-registry
// snapshot (obs.EncodeSnapshot) so the coordinator's /metrics can
// expose per-rank families without a second connection; empty means
// none this ack.
type posAck struct {
	Epoch     int
	Step      int
	WeightCRC uint32
	Snap      []byte
}

func (a *posAck) appendTo(b []byte) []byte {
	b = appendU32(b, a.Epoch)
	b = appendU32(b, a.Step)
	b = binary.LittleEndian.AppendUint32(b, a.WeightCRC)
	return appendBytes(b, a.Snap)
}

func decodePosAck(p []byte) (*posAck, error) {
	c := cursor{p: p}
	a := &posAck{Epoch: c.int(), Step: c.int(), WeightCRC: c.u32(), Snap: c.bytes()}
	return a, c.err
}

// gradRequest asks a worker for the gradients of shards [ShardLo,
// ShardHi) of the batch at (Epoch, Step).
type gradRequest struct {
	Epoch   int
	Step    int
	ShardLo int
	ShardHi int
}

func (g *gradRequest) appendTo(b []byte) []byte {
	for _, v := range []int{g.Epoch, g.Step, g.ShardLo, g.ShardHi} {
		b = appendU32(b, v)
	}
	return b
}

func decodeGradRequest(p []byte) (*gradRequest, error) {
	c := cursor{p: p}
	g := &gradRequest{Epoch: c.int(), Step: c.int(), ShardLo: c.int(), ShardHi: c.int()}
	return g, c.err
}

// shardGrad is one shard's contribution: its index (the reduction key),
// row count (the reduction weight), observed loss, and per-layer
// gradients.
type shardGrad struct {
	Index int
	Rows  int
	Loss  float64
	Grads []nn.Grads
}

// gradReply carries every shard a worker was asked for. The coordinator
// never materializes one: it walks the payload with shardHead and folds
// each gradient section from the bytes (reducer.addWire).
type gradReply struct {
	Epoch  int
	Step   int
	Shards []shardGrad
}

func (g *gradReply) appendTo(b []byte) []byte {
	b = appendU32(b, g.Epoch)
	b = appendU32(b, g.Step)
	b = appendU32(b, len(g.Shards))
	for i := range g.Shards {
		s := &g.Shards[i]
		b = appendU32(b, s.Index)
		b = appendU32(b, s.Rows)
		b = appendF64(b, s.Loss)
		b = appendGrads(b, s.Grads)
	}
	return b
}

// gradReplyHead reads a gradReply's position and shard count, leaving
// the cursor on the first shard.
func gradReplyHead(c *cursor) (epoch, step, shards int) {
	return c.int(), c.int(), c.int()
}

// shardHead reads one shard's index, row count and loss, leaving the
// cursor on its gradient section.
func shardHead(c *cursor) (index, rows int, loss float64) {
	return c.int(), c.int(), c.f64()
}

// commit distributes the reduced gradient for (Epoch, Step); every
// replica (workers and coordinator alike) applies it through its
// optimizer.
type commit struct {
	Epoch int
	Step  int
	Loss  float64
	Grads []nn.Grads
}

func (c *commit) appendTo(b []byte) []byte {
	b = appendU32(b, c.Epoch)
	b = appendU32(b, c.Step)
	b = appendF64(b, c.Loss)
	return appendGrads(b, c.Grads)
}

// decodeCommit reads a commit's position and loss and returns its
// gradient section undecoded: the worker position-checks first and
// then decodes that section into its retained gradients (decodeGrads).
func decodeCommit(p []byte) (cm commit, grads []byte, err error) {
	c := cursor{p: p}
	cm = commit{Epoch: c.int(), Step: c.int(), Loss: c.f64()}
	return cm, c.p, c.err
}

// errMsg reports a worker-side failure with a recovery hint.
type errMsg struct {
	Epoch int
	Step  int
	Code  uint8
	Text  string
}

func (e *errMsg) appendTo(b []byte) []byte {
	b = appendU32(b, e.Epoch)
	b = appendU32(b, e.Step)
	b = append(b, e.Code)
	return appendString(b, e.Text)
}

func decodeErrMsg(p []byte) (*errMsg, error) {
	c := cursor{p: p}
	e := &errMsg{Epoch: c.int(), Step: c.int(), Code: c.u8(), Text: c.str()}
	return e, c.err
}

// peekPos extracts the (epoch, step) header every worker→coordinator
// payload begins with, letting the coordinator order frames without a
// full decode.
func peekPos(p []byte) (epoch, step int, err error) {
	c := cursor{p: p}
	epoch, step = c.int(), c.int()
	return epoch, step, c.err
}

// Gradient section, shared by gradReply shards and commit: layer count
// (u32), then per layer rows (u32), cols (u32), the weight gradient and
// the bias gradient, each as binio.AppendFloats writes a slice.

func appendGrads(b []byte, grads []nn.Grads) []byte {
	b = appendU32(b, len(grads))
	for _, g := range grads {
		b = appendU32(b, g.W.Rows)
		b = appendU32(b, g.W.Cols)
		b = binio.AppendFloats(b, g.W.Data)
		b = binio.AppendFloats(b, g.B)
	}
	return b
}

// walkGrads walks a gradient section shaped like the given gradients
// and hands each weight and bias slice's raw little-endian bytes to
// visit, in wire order. Every header field is checked against the local
// shape before its bytes are handed out — a peer cannot make the caller
// read or write past a slice it sized itself — and the cursor is left
// just behind the section.
func walkGrads(c *cursor, like []nn.Grads, visit func(dst []float64, src []byte)) error {
	if n := c.int(); c.err == nil && n != len(like) {
		return fmt.Errorf("dist: gradient carries %d layers, model has %d", n, len(like))
	}
	for i, g := range like {
		rows, cols, nw := c.int(), c.int(), c.int()
		w := c.take(8 * len(g.W.Data))
		nb := c.int()
		b := c.take(8 * len(g.B))
		if c.err != nil {
			break
		}
		if rows != g.W.Rows || cols != g.W.Cols || nw != len(g.W.Data) || nb != len(g.B) {
			return fmt.Errorf("dist: layer %d gradient is %dx%d (%d weights, %d biases), model has %dx%d (%d biases)",
				i, rows, cols, nw, nb, g.W.Rows, g.W.Cols, len(g.B))
		}
		visit(g.W.Data, w)
		visit(g.B, b)
	}
	if c.err != nil {
		return fmt.Errorf("dist: gradient section truncated: %w", c.err)
	}
	return nil
}

// decodeGrads decodes a gradient section into grads, which must already
// have the model's shapes; nothing is allocated.
func decodeGrads(p []byte, grads []nn.Grads) error {
	c := cursor{p: p}
	if err := walkGrads(&c, grads, binio.DecodeFloats); err != nil {
		return err
	}
	if len(c.p) != 0 {
		return errors.New("dist: bytes left behind the gradient section")
	}
	return nil
}

// weightCRC hashes every layer's weights and biases (IEEE-754 bits,
// little-endian, layer order) — the cheap replica-equality certificate
// exchanged on every sync and commit. The bytes go to the hash in 4 KiB
// blocks; the value is that of hashing them one float at a time.
func weightCRC(net *nn.Network) uint32 {
	var crc uint32
	for _, l := range net.Layers {
		crc = crcFloats(crcFloats(crc, l.W.Data), l.B)
	}
	return crc
}

// crcFloats extends crc by the little-endian bits of vals. A function
// of its own, not a loop nest in weightCRC: the compiler keeps this
// small loop's state in registers and the hash runs a third faster.
func crcFloats(crc uint32, vals []float64) uint32 {
	var buf [4096]byte
	for len(vals) > 0 {
		k := min(len(vals), len(buf)/8)
		binio.EncodeFloats(buf[:], vals[:k])
		crc = crc32.Update(crc, crc32.IEEETable, buf[:8*k])
		vals = vals[k:]
	}
	return crc
}
