package binio

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"samplednn/internal/obs"
)

// allocatedBy runs fn and returns the bytes it allocated. Nothing else
// runs in a fuzz worker while the target does, but the runtime's own
// bookkeeping shows up, so callers leave slack.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame: for any byte stream ReadFrame returns an error or a
// frame that WriteFrame renders back to the bytes it was read from; it
// never panics, and what it allocates is bounded by what the stream
// actually holds — not by what a header claims will follow.
func FuzzReadFrame(f *testing.F) {
	frame := func(tb testing.TB, fr Frame) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, fr); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	// testdata/fuzz/FuzzReadFrame holds the single-frame seeds (valid,
	// truncated, payload and length bit flips, and a header that promises
	// 1 GiB and sends nothing); these add the shapes they lack.
	small := frame(f, Frame{Type: 6, Seq: 9, Ctx: obs.Ctx{Run: 1, Trace: 2, Span: 3, Clock: 4}, Payload: []byte("gradient")})
	f.Add(append(append([]byte{}, small...), small...))
	f.Add(frame(f, Frame{Type: 1, Seq: 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		var err error
		grew := allocatedBy(func() { fr, err = ReadFrame(bytes.NewReader(data)) })
		if limit := uint64(2*len(data) + payloadStep + 1<<20); grew > limit {
			t.Fatalf("ReadFrame allocated %d bytes for %d bytes of input", grew, len(data))
		}
		if err != nil && !errors.Is(err, ErrFrameCorrupt) {
			if fr.Payload != nil {
				t.Fatalf("payload handed out with error %v", err)
			}
			return
		}
		if FrameHeaderLen+len(fr.Payload) > len(data) {
			t.Fatalf("frame of %d payload bytes read from %d bytes", len(fr.Payload), len(data))
		}
		if err == nil {
			if again := frame(t, fr); !bytes.Equal(again, data[:len(again)]) {
				t.Fatal("accepted frame does not re-encode to the bytes it was read from")
			}
		}
	})
}
