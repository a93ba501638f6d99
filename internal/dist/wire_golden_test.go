package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/rng"
)

// testdata/wire.golden pins frame v2 byte for byte: SHA-256 of the wire
// bytes of one fixed gradReply, commit, posAck and syncMsg, each sent as
// the first frame of a connection whose Lamport clock stands at 41 (so
// the frame carries seq 1, clock 42). The file was recorded from the
// buffer-building encoders (message.encode() → frameConn.encode) before
// they were replaced; a passing run proves the append-into-frame encoder
// emits the same bytes, so mixed-version peers and recorded traffic stay
// readable. Regenerate (only when a PR states why the wire may change)
// with DIST_WIRE_GOLDEN_UPDATE=1 go test ./internal/dist -run TestWireGolden.

// goldenGrads is a two-layer gradient with the awkward IEEE values in it.
func goldenGrads() []nn.Grads {
	g := rng.New(77)
	grads := []nn.Grads{
		{W: randMatrix(g, 5, 4), B: randSlice(g, 4)},
		{W: randMatrix(g, 4, 3), B: randSlice(g, 3)},
	}
	grads[0].W.Data[1] = math.NaN()
	grads[0].W.Data[2] = math.Inf(1)
	grads[0].B[0] = math.Inf(-1)
	grads[1].W.Data[0] = math.Copysign(0, -1)
	return grads
}

// goldenConn is a frameConn about to send seq 1 with clock 42.
func goldenConn() *frameConn {
	fc := newFrameConn(nil, 0, 0)
	fc.clock = obs.NewClock()
	fc.clock.Witness(41)
	return fc
}

var goldenCtx = obs.Ctx{Run: 0x1122334455667788, Trace: 0x99aabbccddeeff00, Span: 0x0123456789abcdef}

func goldenBlob() []byte {
	blob := make([]byte, 300)
	for i := range blob {
		blob[i] = byte(i*7 + 3)
	}
	return blob
}

// goldenWireFrames renders the four pinned messages to wire bytes.
func goldenWireFrames(t *testing.T) map[string][]byte {
	grads := goldenGrads()
	reply := gradReply{Epoch: 3, Step: 17, Shards: []shardGrad{
		{Index: 2, Rows: 4, Loss: 0.75, Grads: grads},
		{Index: 3, Rows: 3, Loss: 1.25, Grads: grads},
	}}
	cm := commit{Epoch: 3, Step: 17, Loss: 0.9375, Grads: grads}
	ack := posAck{Epoch: 3, Step: 17, WeightCRC: 0xdeadbeef, Snap: []byte(`{"counters":{"x":1}}`)}
	sm := syncMsg{Epoch: 3, Step: 17, Blob: goldenBlob()}
	frames := map[string][]byte{}
	for _, f := range []struct {
		name string
		typ  uint8
		m    message
	}{
		{"gradReply", msgGradReply, &reply},
		{"commit", msgCommit, &cm},
		{"posAck", msgCommitAck, &ack},
		{"syncMsg", msgSync, &sm},
	} {
		fc := goldenConn()
		fc.out.set(f.m)
		if err := fc.seal(&fc.out, f.typ, goldenCtx); err != nil {
			t.Fatal(err)
		}
		frames[f.name] = fc.out.buf
	}
	return frames
}

func TestWireGolden(t *testing.T) {
	frames := goldenWireFrames(t)
	var lines []string
	for name, b := range frames {
		sum := sha256.Sum256(b)
		lines = append(lines, fmt.Sprintf("%s %d %s", name, len(b), hex.EncodeToString(sum[:])))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "wire.golden")
	if os.Getenv("DIST_WIRE_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("wire bytes changed.\n got:\n%s\nwant:\n%s", got, want)
	}
}
