// Frame layer: the unit of exchange on a distributed-training
// connection (internal/dist). A frame wraps an opaque payload with
// enough metadata to detect every corruption mode the fault-injection
// harness can produce, plus the correlation context that ties the
// telemetry of both endpoints together:
//
//	magic   u32  "SNFR" — catches stream desync and foreign peers
//	version u8   format revision, currently 2
//	type    u8   message discriminator, opaque to this layer
//	seq     u64  per-direction sequence number, strictly increasing
//	ctx     32B  obs.Ctx wire form: run, trace, span, Lamport clock
//	len     u32  payload length, capped at MaxFrameLen
//	crc     u32  CRC-32 (IEEE) of the payload bytes
//	payload len bytes
//
// Version 2 widened the header by the 32-byte context block (v1 had no
// ctx field); peers negotiate nothing — both ends of a dist connection
// ship in the same binary, so a version mismatch is a deployment bug
// and is reported as one.
//
// The header fields are covered by their own CRC-32 so a bit flip in
// the length prefix is reported as header corruption rather than a
// misread of the following len bytes. Payload corruption
// (ErrFrameCorrupt) leaves the stream aligned on the next frame
// boundary, so the caller may retry the RPC; header corruption does
// not, and the caller must reset the connection.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"samplednn/internal/obs"
)

// FrameMagic starts every frame ("SNFR" little-endian).
const FrameMagic = 0x52464e53

// FrameVersion is the current frame format revision.
const FrameVersion = 2

// MaxFrameLen caps a frame payload. Gradient frames carry full weight
// matrices, so the cap matches MaxBlobLen.
const MaxFrameLen = MaxBlobLen

// Frame header layout offsets. FrameHeaderLen is magic(4)+version(1)+
// type(1)+seq(8)+ctx(CtxWireLen)+len(4)+payloadCRC(4)+headerCRC(4).
const (
	frameOffSeq        = 6
	frameOffCtx        = 14
	frameOffLen        = frameOffCtx + obs.CtxWireLen
	frameOffPayloadCRC = frameOffLen + 4
	frameOffHeaderCRC  = frameOffPayloadCRC + 4

	// FrameHeaderLen is the size of the fixed header in front of every
	// payload. A sender that builds its payload behind FrameHeaderLen
	// reserved bytes can stamp the header in place (PutFrameHeader) and
	// hand header and payload to the connection in one Write.
	FrameHeaderLen = frameOffHeaderCRC + 4
)

// ErrFrameCorrupt reports a frame whose payload failed its CRC. The
// full payload was consumed, so the stream remains aligned on the next
// frame boundary and the RPC may be retried on the same connection.
var ErrFrameCorrupt = errors.New("binio: frame payload failed CRC")

// Frame is one decoded message envelope.
type Frame struct {
	Type    uint8
	Seq     uint64
	Ctx     obs.Ctx
	Payload []byte
}

// FrameHeader is the header of one frame: the envelope fields plus the
// length and CRC-32 (IEEE) of the payload that follows it.
type FrameHeader struct {
	Type       uint8
	Seq        uint64
	Ctx        obs.Ctx
	Len        int
	PayloadCRC uint32
}

// PutFrameHeader renders h, header CRC included, into
// hdr[:FrameHeaderLen].
func PutFrameHeader(hdr []byte, h FrameHeader) {
	binary.LittleEndian.PutUint32(hdr[0:], FrameMagic)
	hdr[4] = FrameVersion
	hdr[5] = h.Type
	binary.LittleEndian.PutUint64(hdr[frameOffSeq:], h.Seq)
	h.Ctx.PutWire(hdr[frameOffCtx:])
	binary.LittleEndian.PutUint32(hdr[frameOffLen:], uint32(h.Len))
	binary.LittleEndian.PutUint32(hdr[frameOffPayloadCRC:], h.PayloadCRC)
	binary.LittleEndian.PutUint32(hdr[frameOffHeaderCRC:], crc32.ChecksumIEEE(hdr[:frameOffHeaderCRC]))
}

// ParseFrameHeader checks hdr[:FrameHeaderLen] — header CRC, magic,
// version, MaxFrameLen — and returns its fields. A receiver with a
// tighter bound on what its peer may send compares Len against it
// before reading (or allocating for) the payload.
func ParseFrameHeader(hdr []byte) (FrameHeader, error) {
	if got := binary.LittleEndian.Uint32(hdr[frameOffHeaderCRC:]); got != crc32.ChecksumIEEE(hdr[:frameOffHeaderCRC]) {
		return FrameHeader{}, errors.New("binio: frame header failed CRC")
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != FrameMagic {
		return FrameHeader{}, fmt.Errorf("binio: frame magic %#08x, want %#08x", magic, FrameMagic)
	}
	if v := hdr[4]; v != FrameVersion {
		return FrameHeader{}, fmt.Errorf("binio: frame version %d, want %d", v, FrameVersion)
	}
	n := binary.LittleEndian.Uint32(hdr[frameOffLen:])
	if n > MaxFrameLen {
		return FrameHeader{}, fmt.Errorf("binio: implausible frame length %d", n)
	}
	return FrameHeader{
		Type:       hdr[5],
		Seq:        binary.LittleEndian.Uint64(hdr[frameOffSeq:]),
		Ctx:        obs.CtxFromWire(hdr[frameOffCtx:]),
		Len:        int(n),
		PayloadCRC: binary.LittleEndian.Uint32(hdr[frameOffPayloadCRC:]),
	}, nil
}

// WriteFrame writes one frame. The payload is not retained.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameLen {
		return fmt.Errorf("binio: frame payload of %d bytes exceeds cap", len(f.Payload))
	}
	hdr := make([]byte, FrameHeaderLen)
	PutFrameHeader(hdr, FrameHeader{
		Type: f.Type, Seq: f.Seq, Ctx: f.Ctx,
		Len: len(f.Payload), PayloadCRC: crc32.ChecksumIEEE(f.Payload),
	})
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame. Errors:
//   - io.EOF: clean end of stream before any header byte
//   - io.ErrUnexpectedEOF: truncated mid-frame
//   - ErrFrameCorrupt: payload CRC mismatch; stream stays aligned
//   - other errors: header corruption or I/O failure; the connection
//     must be reset
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, FrameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	h, err := ParseFrameHeader(hdr)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{Type: h.Type, Seq: h.Seq, Ctx: h.Ctx}
	if f.Payload, err = readPayload(r, h.Len); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if crc32.ChecksumIEEE(f.Payload) != h.PayloadCRC {
		return f, ErrFrameCorrupt
	}
	return f, nil
}

// payloadStep is the most ReadFrame allocates ahead of the bytes it has
// actually received: a header is 58 bytes anyone can forge (its CRC is
// not a secret), so the length it names is believed one step at a time.
const payloadStep = 4 << 20

// readPayload reads n bytes. Up to payloadStep the buffer is allocated
// at once; beyond it the buffer doubles only after the stream has
// filled it, so a stream that names more than it holds costs at most
// twice what it holds plus one step.
func readPayload(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, payloadStep))
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	for len(b) < n {
		have := len(b)
		b = append(b, make([]byte, min(n-have, have))...)
		if _, err := io.ReadFull(r, b[have:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}
