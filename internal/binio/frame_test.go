package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"samplednn/internal/obs"
	"samplednn/internal/rng"
)

func randFrame(g *rng.RNG) Frame {
	payload := make([]byte, g.IntN(256))
	for i := range payload {
		payload[i] = byte(g.IntN(256))
	}
	return Frame{
		Type: uint8(g.IntN(256)),
		Seq:  g.Uint64(),
		Ctx: obs.Ctx{
			Run:   g.Uint64(),
			Trace: g.Uint64(),
			Span:  g.Uint64(),
			Clock: g.Uint64(),
		},
		Payload: payload,
	}
}

func encodeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	g := rng.New(0xf7a3e)
	for i := 0; i < 200; i++ {
		want := randFrame(g)
		got, err := ReadFrame(bytes.NewReader(encodeFrame(t, want)))
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Ctx != want.Ctx || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
	}
}

// Every strict prefix of an encoded frame must fail cleanly: io.EOF when
// nothing was read, io.ErrUnexpectedEOF otherwise, and never a decoded
// frame.
func TestFrameTruncation(t *testing.T) {
	g := rng.New(0x7c1)
	for i := 0; i < 50; i++ {
		enc := encodeFrame(t, randFrame(g))
		for cut := 0; cut < len(enc); cut++ {
			_, err := ReadFrame(bytes.NewReader(enc[:cut]))
			switch {
			case cut == 0 && err != io.EOF:
				t.Fatalf("cut=0: err=%v, want io.EOF", err)
			case cut > 0 && err != io.EOF && err != io.ErrUnexpectedEOF:
				t.Fatalf("cut=%d of %d: err=%v, want EOF class", cut, len(enc), err)
			}
		}
	}
}

// Any single bit flip must be detected — CRC-32 catches all single-bit
// errors, so there is no position where a flip yields a clean read.
func TestFrameBitFlips(t *testing.T) {
	g := rng.New(0xb17f)
	for i := 0; i < 20; i++ {
		f := randFrame(g)
		enc := encodeFrame(t, f)
		for bit := 0; bit < 8*len(enc); bit++ {
			mut := bytes.Clone(enc)
			mut[bit/8] ^= 1 << (bit % 8)
			_, err := ReadFrame(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("flip of bit %d (byte %d) read cleanly", bit, bit/8)
			}
		}
	}
}

// A payload bit flip is reported as ErrFrameCorrupt and leaves the
// stream aligned: the following frame still reads cleanly. This is the
// property the dist RPC retry depends on.
func TestFrameCorruptPayloadKeepsAlignment(t *testing.T) {
	g := rng.New(0xa119)
	for i := 0; i < 50; i++ {
		bad := randFrame(g)
		if len(bad.Payload) == 0 {
			bad.Payload = []byte{0x5a}
		}
		good := randFrame(g)
		encBad := encodeFrame(t, bad)
		encBad[FrameHeaderLen+g.IntN(len(bad.Payload))] ^= 0x80
		stream := bytes.NewReader(append(encBad, encodeFrame(t, good)...))

		if _, err := ReadFrame(stream); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("corrupt payload: err=%v, want ErrFrameCorrupt", err)
		}
		got, err := ReadFrame(stream)
		if err != nil {
			t.Fatalf("frame after corrupt one: %v", err)
		}
		if got.Seq != good.Seq || !bytes.Equal(got.Payload, good.Payload) {
			t.Fatalf("frame after corrupt one mismatched")
		}
	}
}

// A header corruption (including an oversized length field) must be
// reported as a non-retryable error distinct from ErrFrameCorrupt, and
// an implausible length must fail before any allocation is attempted.
func TestFrameOversizedLength(t *testing.T) {
	enc := encodeFrame(t, Frame{Type: 1, Seq: 7, Payload: []byte("abc")})
	// Blow up the length field; the header CRC no longer matches, which
	// is exactly how a flipped length is caught in the wild.
	mut := bytes.Clone(enc)
	mut[frameOffLen], mut[frameOffLen+1], mut[frameOffLen+2], mut[frameOffLen+3] = 0xff, 0xff, 0xff, 0xff
	_, err := ReadFrame(bytes.NewReader(mut))
	if err == nil || errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized length: err=%v, want hard header error", err)
	}
	// A hostile peer can send an oversized length with a *valid* header
	// CRC; the cap check must reject it before the 4 GiB allocation.
	rewriteHeaderCRC(mut)
	_, err = ReadFrame(bytes.NewReader(mut))
	if err == nil || errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized length, valid CRC: err=%v, want hard header error", err)
	}
}

// rewriteHeaderCRC recomputes the header CRC after a test deliberately
// tampers with an earlier header field, so the field's own validation
// (not the CRC) is what rejects the frame.
func rewriteHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[frameOffHeaderCRC:], crc32.ChecksumIEEE(b[:frameOffHeaderCRC]))
}

// TestFrameZeroCtxIsValid pins backward behavior: a frame sent with no
// correlation context round-trips to the zero Ctx.
func TestFrameZeroCtxIsValid(t *testing.T) {
	enc := encodeFrame(t, Frame{Type: 2, Seq: 1, Payload: []byte("p")})
	got, err := ReadFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.Ctx != (obs.Ctx{}) {
		t.Fatalf("zero ctx decoded as %+v", got.Ctx)
	}
}

func TestFrameWrongMagicAndVersion(t *testing.T) {
	enc := encodeFrame(t, Frame{Type: 3, Seq: 9, Payload: []byte("xyz")})
	// Recompute a valid header CRC after tampering so the magic/version
	// checks themselves are exercised.
	tamper := func(mutate func([]byte)) error {
		mut := bytes.Clone(enc)
		mutate(mut)
		rewriteHeaderCRC(mut)
		_, err := ReadFrame(bytes.NewReader(mut))
		return err
	}
	if err := tamper(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Fatal("wrong magic read cleanly")
	}
	if err := tamper(func(b []byte) { b[4] = FrameVersion + 1 }); err == nil {
		t.Fatal("wrong version read cleanly")
	}
}
