package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"samplednn/internal/binio"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

// memConn is a net.Conn over a byte buffer: what one frameConn writes,
// another reads, with no goroutine and no kernel in between — so
// testing.AllocsPerRun sees the exchange's allocations and nothing else.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// memPair returns a sending and a receiving frameConn over one memConn.
func memPair() (conn *memConn, tx, rx *frameConn) {
	conn = &memConn{}
	return conn, newFrameConn(conn, time.Second, 0), newFrameConn(conn, time.Second, binio.MaxFrameLen)
}

func testNet(t testing.TB, seed uint64, in, units, depth, out int) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(nn.Uniform(in, units, depth, out), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// randGrads returns gradients shaped like net's layers with normal
// entries and one each of NaN, ±Inf and −0 in the first layer.
func randGrads(g *rng.RNG, net *nn.Network) []nn.Grads {
	grads := make([]nn.Grads, len(net.Layers))
	for i, l := range net.Layers {
		grads[i] = l.ZeroGrads()
		g.GaussianSlice(grads[i].W.Data, 0, 1)
		g.GaussianSlice(grads[i].B, 0, 1)
	}
	w := grads[0].W.Data
	w[0], w[1], w[2], w[3] = math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)
	return grads
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameGradBits(a, b []nn.Grads) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].W.Data, b[i].W.Data) || !sameBits(a[i].B, b[i].B) {
			return false
		}
	}
	return true
}

// perValueCRC is the definition of the weight CRC: each value's
// little-endian IEEE-754 bits, hashed one value at a time.
func perValueCRC(net *nn.Network) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, l := range net.Layers {
		for _, vals := range [][]float64{l.W.Data, l.B} {
			for _, v := range vals {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum32()
}

// BenchmarkWeightCRC times the certificate every sync and commit ack
// carries, on the 784-128³-10 network, fed in blocks and one value at a
// time.
func BenchmarkWeightCRC(b *testing.B) {
	net := testNet(b, 1, 784, 128, 3, 10)
	for _, bc := range []struct {
		name string
		crc  func(*nn.Network) uint32
	}{{"blocks", weightCRC}, {"per-value", perValueCRC}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(8 * net.NumParams()))
			for i := 0; i < b.N; i++ {
				sinkCRC = bc.crc(net)
			}
		})
	}
}

var sinkCRC uint32

// TestWeightCRCMatchesPerValueDefinition pins the value acks carry: the
// block-fed hash is the CRC-32 of each weight's little-endian bits fed
// one value at a time, whatever the layer sizes do to the block
// boundaries and whatever IEEE special sits in the weights.
func TestWeightCRCMatchesPerValueDefinition(t *testing.T) {
	g := rng.New(91)
	for i, shape := range [][4]int{{3, 2, 1, 2}, {64, 8, 1, 3}, {37, 29, 3, 7}, {513, 5, 2, 4}} {
		net := testNet(t, uint64(100+i), shape[0], shape[1], shape[2], shape[3])
		for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
			l := net.Layers[g.IntN(len(net.Layers))]
			l.W.Data[g.IntN(len(l.W.Data))] = special
			l.B[g.IntN(len(l.B))] = special
		}
		if got, want := weightCRC(net), perValueCRC(net); got != want {
			t.Errorf("shape %v: block-fed CRC %08x, per-value CRC %08x", shape, got, want)
		}
	}
}

// TestFoldReplyMatchesDecodeThenAdd: folding a grad reply from its
// payload bytes leaves the accumulators, loss and row count exactly —
// bit for bit — where decoding every gradient and offering it to
// reducer.Add leaves them, for one, two and three shards of uneven
// size, arriving in one reply or split over two ranks' replies.
func TestFoldReplyMatchesDecodeThenAdd(t *testing.T) {
	net := testNet(t, 7, 9, 6, 2, 4)
	const rows = 7
	for shards := 1; shards <= 3; shards++ {
		g := rng.New(uint64(20 + shards))
		var all []shardGrad
		for s := 0; s < shards; s++ {
			lo, hi := shardRange(rows, shards, s)
			all = append(all, shardGrad{Index: s, Rows: hi - lo, Loss: g.Float64(), Grads: randGrads(g, net)})
		}
		for split := 1; split <= shards; split++ {
			// Rank 0 reports shards [0, split), rank 1 the rest.
			replies := [][]shardGrad{all[:split], all[split:]}
			want := newReducer(net)
			fused := &Coordinator{opts: Options{Shards: shards}, red: newReducer(net)}
			lo := 0
			for _, part := range replies {
				if len(part) == 0 {
					continue
				}
				payload := enc(&gradReply{Epoch: 2, Step: 5, Shards: part})
				ref, err := refDecodeGradReply(payload)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range ref.Shards {
					want.Add(s.Index, s.Rows, rows, s.Loss, s.Grads)
				}
				if err := fused.foldReply(payload, lo, lo+len(part), rows); err != nil {
					t.Fatalf("shards=%d split=%d: %v", shards, split, err)
				}
				lo += len(part)
			}
			wantLoss, wantGrads := want.Result(rows)
			gotLoss, gotGrads := fused.red.Result(rows)
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || !sameGradBits(gotGrads, wantGrads) {
				t.Errorf("shards=%d split=%d: fused fold differs from decode-then-Add", shards, split)
			}
		}
	}
}

// TestFoldReplyRejectsWhatItWasNotAskedFor: shards outside the rank's
// assignment, out of order, of the wrong size or shape, and payloads
// with bytes missing or left over are errors, not panics.
func TestFoldReplyRejectsWhatItWasNotAskedFor(t *testing.T) {
	net := testNet(t, 7, 9, 6, 2, 4)
	other := testNet(t, 7, 9, 5, 2, 4)
	g := rng.New(3)
	shard := func(index, rows int, n *nn.Network) shardGrad {
		return shardGrad{Index: index, Rows: rows, Loss: 1, Grads: randGrads(g, n)}
	}
	good := enc(&gradReply{Shards: []shardGrad{shard(0, 5, net), shard(1, 5, net)}})
	cases := map[string][]byte{
		"outside assignment": enc(&gradReply{Shards: []shardGrad{shard(2, 5, net)}}),
		"descending":         enc(&gradReply{Shards: []shardGrad{shard(1, 5, net), shard(0, 5, net)}}),
		"duplicate":          enc(&gradReply{Shards: []shardGrad{shard(0, 5, net), shard(0, 5, net)}}),
		"wrong row count":    enc(&gradReply{Shards: []shardGrad{shard(0, 4, net)}}),
		"wrong shape":        enc(&gradReply{Shards: []shardGrad{shard(0, 5, other)}}),
		"truncated":          good[:len(good)-9],
		"trailing bytes":     append(append([]byte{}, good...), 0),
		"shard count lies":   append(append([]byte{}, good[:8]...), append([]byte{9, 0, 0, 0}, good[12:]...)...),
		"empty":              nil,
	}
	for name, payload := range cases {
		c := &Coordinator{opts: Options{Shards: 4}, red: newReducer(net)}
		if err := c.foldReply(payload, 0, 2, 20); err == nil {
			t.Errorf("%s: folded without error", name)
		}
	}
	c := &Coordinator{opts: Options{Shards: 4}, red: newReducer(net)}
	if err := c.foldReply(good, 0, 2, 20); err != nil {
		t.Fatalf("well-formed reply: %v", err)
	}
}

// TestCorruptPayloadNeverLeavesRecv: a frame whose payload fails its
// CRC comes out of recv with the error and no payload — there is
// nothing for a caller to fold or apply — and the next frame on the
// stream is read normally.
func TestCorruptPayloadNeverLeavesRecv(t *testing.T) {
	net := testNet(t, 7, 9, 6, 2, 4)
	reply := gradReply{Epoch: 1, Step: 1, Shards: []shardGrad{{Index: 0, Rows: 7, Loss: 1, Grads: randGrads(rng.New(4), net)}}}
	conn, tx, rx := memPair()
	if err := tx.send(msgGradReply, obs.Ctx{}, &reply); err != nil {
		t.Fatal(err)
	}
	wire := conn.Bytes()
	wire[len(wire)-1] ^= 0x01
	if err := tx.send(msgGradReply, obs.Ctx{}, &reply); err != nil {
		t.Fatal(err)
	}

	c := &Coordinator{opts: Options{Shards: 1}, red: newReducer(net)}
	f, err := rx.recv(time.Second)
	if !errors.Is(err, binio.ErrFrameCorrupt) || f.Payload != nil || f.Seq != 1 {
		t.Fatalf("corrupt frame: seq %d, %d payload bytes, err %v", f.Seq, len(f.Payload), err)
	}
	for _, a := range c.red.acc {
		if !sameBits(a.W.Data, make([]float64, len(a.W.Data))) {
			t.Fatal("accumulator touched by a frame that failed its CRC")
		}
	}
	f, err = rx.recv(time.Second)
	if err != nil || f.Seq != 2 {
		t.Fatalf("frame behind the corrupt one: seq %d, err %v", f.Seq, err)
	}
	if err := c.foldReply(f.Payload, 0, 1, 7); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateExchangeDoesNotAllocate: once the buffers have grown,
// a worker's encode → send, the coordinator's recv → fold, and a
// worker's commit decode allocate nothing at all — in particular
// nothing the size of a gradient.
func TestSteadyStateExchangeDoesNotAllocate(t *testing.T) {
	net := testNet(t, 7, 40, 24, 2, 6)
	g := rng.New(8)
	reply := gradReply{Epoch: 1, Step: 1, Shards: []shardGrad{{Index: 0, Rows: 5, Loss: 0.5, Grads: randGrads(g, net)}}}
	_, tx, rx := memPair()
	c := &Coordinator{opts: Options{Shards: 1}, red: newReducer(net)}
	var fail error
	exchange := func() {
		c.red.reset()
		if err := tx.send(msgGradReply, obs.Ctx{}, &reply); err != nil {
			fail = err
		}
		f, err := rx.recv(time.Second)
		if err != nil {
			fail = err
			return
		}
		if err := c.foldReply(f.Payload, 0, 1, 5); err != nil {
			fail = err
		}
	}
	if n := testing.AllocsPerRun(20, exchange); n != 0 || fail != nil {
		t.Errorf("encode → recv → fold: %v allocations per exchange (err %v)", n, fail)
	}

	_, grads := c.red.Result(5)
	payload := enc(&commit{Epoch: 1, Step: 1, Loss: 0.5, Grads: grads})
	into := randGrads(g, net)
	decode := func() {
		_, gradBytes, err := decodeCommit(payload)
		if err == nil {
			err = decodeGrads(gradBytes, into)
		}
		if err != nil {
			fail = err
		}
	}
	if n := testing.AllocsPerRun(20, decode); n != 0 || fail != nil {
		t.Errorf("commit decode: %v allocations per commit (err %v)", n, fail)
	}
	if !sameGradBits(into, grads) {
		t.Error("commit decoded into retained gradients differs from what was encoded")
	}
}

// TestBatchCopyIsRetained pins the worker's per-step batch copy: it
// reuses one backing array and never aliases the batcher's buffer.
func TestBatchCopyIsRetained(t *testing.T) {
	w := &worker{}
	src := tensor.New(4, 3)
	for step := 0; step < 3; step++ {
		for i := range src.Data {
			src.Data[i] = float64(step*100 + i)
		}
		before := w.bx.Data
		w.keepBatch(src, []int{step, 1, 2, 3})
		if step > 0 && &before[0] != &w.bx.Data[0] {
			t.Fatal("batch copy was reallocated")
		}
		if &w.bx.Data[0] == &src.Data[0] || !sameBits(w.bx.Data, src.Data) || w.bx.Rows != 4 || w.bx.Cols != 3 || w.by[0] != step {
			t.Fatal("batch copy does not hold its own copy of the rows")
		}
	}
}

// TestOversizedHelloIsRefusedUnallocated: a listening coordinator meets
// a connection whose first frame has a well-formed header — magic,
// version, header CRC all valid, which takes no secret — naming a 1 GiB
// payload. The join must fail on the header, before anything is
// allocated for the payload it promises.
func TestOversizedHelloIsRefusedUnallocated(t *testing.T) {
	m, ds, dopts := buildRun(t)
	co, err := NewCoordinator(m, ds, 10, Options{
		Workers: 1, NoSpawn: true, Data: dopts, Registry: obs.NewRegistry(),
		IOTimeout: 2 * time.Second, StepTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := make([]byte, binio.FrameHeaderLen)
	binio.PutFrameHeader(hdr, binio.FrameHeader{Type: msgHello, Seq: 1, Len: binio.MaxFrameLen})
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x, y := ds.Train.X.RowRange(0, 10), ds.Train.Y[:10]
	_, err = co.StepBatch(train.StepPos{Epoch: 1}, x, y, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("step ran with no worker joined")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the frame allocated %d bytes", grew)
	}
	if co.workers[0] != nil {
		t.Error("the connection was given a rank")
	}
	// The coordinator hung up instead of waiting for the payload.
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read on the refused connection: %v, want EOF", err)
	}
}

// TestStageTimesSumToReduce: over a real two-worker epoch the four
// dist.stage_ns.* distributions account for dist.reduce_ns — same step
// count, sums within 2 %.
func TestStageTimesSumToReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	reg := obs.NewRegistry()
	trainWith(t, 1, Options{Workers: 2, Shards: 2, Seed: 9, Registry: reg})
	dists := reg.Snapshot().Dists
	reduce := dists["dist.reduce_ns"]
	var sum int64
	for _, stage := range stageNames {
		d := dists["dist.stage_ns."+stage]
		if d.Count != reduce.Count || d.Sum <= 0 {
			t.Errorf("stage %s: %d observations summing to %d ns, reduce_ns has %d", stage, d.Count, d.Sum, reduce.Count)
		}
		sum += d.Sum
	}
	if reduce.Count == 0 || math.Abs(float64(sum-reduce.Sum)) > 0.02*float64(reduce.Sum) {
		t.Errorf("stages sum to %d ns over %d steps, reduce_ns to %d", sum, reduce.Count, reduce.Sum)
	}
}

// TestReplyCapIsTheLargestReply: the bound a joined connection gets is
// exactly the largest gradReply the coordinator can ask one rank for,
// plus the snapshot allowance.
func TestReplyCapIsTheLargestReply(t *testing.T) {
	m, ds, dopts := buildRun(t)
	co, err := NewCoordinator(m, ds, 10, Options{Workers: 2, Shards: 5, NoSpawn: true, Data: dopts, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	g := rng.New(2)
	var most []shardGrad
	for s := 0; s < 3; s++ { // ⌈5/2⌉ shards
		most = append(most, shardGrad{Index: s, Rows: 2, Grads: randGrads(g, m.Net())})
	}
	if got, want := co.replyCap, len(enc(&gradReply{Shards: most}))+maxSnapshotLen; got != want {
		t.Errorf("replyCap %d, largest reply plus snapshot allowance %d", got, want)
	}
}
