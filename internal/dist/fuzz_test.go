package dist

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"samplednn/internal/rng"
)

// FuzzDecodeGradPayload throws arbitrary bytes at the three decoders a
// step runs on bytes a peer sent: the coordinator's fold of a gradReply
// (kind 0), a worker's commit decode into its retained gradients
// (kind 1) and the posAck decode (kind 2). Each returns an error or a
// value the encoder renders back to the input — for the fold, the sum
// the reference decoder plus reducer.Add produce — never panics, and
// allocates no more than a constant beyond the input's length.
func FuzzDecodeGradPayload(f *testing.F) {
	const (
		shards = 3
		rows   = 10
	)
	net := testNet(f, 7, 5, 4, 1, 3)
	g := rng.New(12)
	var all []shardGrad
	for s := 0; s < shards; s++ {
		lo, hi := shardRange(rows, shards, s)
		all = append(all, shardGrad{Index: s, Rows: hi - lo, Loss: g.Float64(), Grads: randGrads(g, net)})
	}
	// testdata/fuzz/FuzzDecodeGradPayload holds one well-formed payload
	// of each kind; these add the ways a payload can lie about itself.
	reply := enc(&gradReply{Epoch: 1, Step: 2, Shards: all})
	f.Add(uint8(0), reply[:len(reply)-1])
	f.Add(uint8(0), enc(&gradReply{Epoch: 1, Step: 2, Shards: []shardGrad{all[1], all[0]}}))
	lyingCount := append([]byte{}, reply...)
	lyingCount[8] = 0xff
	f.Add(uint8(0), lyingCount)
	cm := enc(&commit{Epoch: 1, Step: 2, Loss: 0.5, Grads: all[0].Grads})
	lyingLayer := append([]byte{}, cm...)
	lyingLayer[16+4+8] = 0xff // the first layer's weight count
	f.Add(uint8(1), lyingLayer)
	f.Add(uint8(1), append(append([]byte{}, cm...), 0))
	f.Add(uint8(2), []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		c := &Coordinator{opts: Options{Shards: shards}, red: newReducer(net)}
		into := randGrads(rng.New(1), net)
		var err error
		var ack *posAck
		var head commit
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		switch kind % 3 {
		case 0:
			err = c.foldReply(data, 0, shards, rows)
		case 1:
			var gradBytes []byte
			if head, gradBytes, err = decodeCommit(data); err == nil {
				err = decodeGrads(gradBytes, into)
			}
		case 2:
			ack, err = decodePosAck(data)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+64<<10 {
			t.Fatalf("kind %d: decoding %d bytes allocated %d", kind%3, len(data), grew)
		}
		if err != nil {
			return
		}
		switch kind % 3 {
		case 0:
			ref, err := refDecodeGradReply(data)
			if err != nil {
				t.Fatalf("fold accepted what the reference decoder rejects: %v", err)
			}
			want := newReducer(net)
			for _, s := range ref.Shards {
				want.Add(s.Index, s.Rows, rows, s.Loss, s.Grads)
			}
			if math.Float64bits(c.red.loss) != math.Float64bits(want.loss) || c.red.rows != want.rows || !sameGradBits(c.red.acc, want.acc) {
				t.Fatal("fold differs from decode-then-Add")
			}
		case 1:
			head.Grads = into
			if !bytes.Equal(enc(&head), data) {
				t.Fatal("accepted commit does not re-encode to its bytes")
			}
		case 2:
			if again := enc(ack); !bytes.Equal(again, data[:len(again)]) {
				t.Fatal("accepted ack does not re-encode to its bytes")
			}
		}
	})
}
