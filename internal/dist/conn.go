package dist

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"samplednn/internal/binio"
	"samplednn/internal/obs"
)

// wireFrame is one outbound frame in wire layout: binio.FrameHeaderLen
// reserved bytes, then the payload, with the payload's CRC beside it.
// set renders a message into it once; seal stamps the per-connection
// header fields in place, so the same payload can go to several
// connections (the commit) or to one connection again (an RPC resend)
// without being encoded or checksummed a second time. The buffer is
// reused from frame to frame: steady state allocates nothing.
type wireFrame struct {
	buf []byte
	crc uint32
}

// set replaces the frame's payload with m's encoding; a nil message is
// the empty payload.
func (f *wireFrame) set(m message) {
	if f.buf == nil {
		f.buf = make([]byte, binio.FrameHeaderLen)
	}
	f.buf = f.buf[:binio.FrameHeaderLen]
	if m != nil {
		f.buf = m.appendTo(f.buf)
	}
	f.crc = crc32.ChecksumIEEE(f.payload())
}

func (f *wireFrame) payload() []byte { return f.buf[binio.FrameHeaderLen:] }

// frameConn wraps a net.Conn with binio framing, per-operation
// deadlines, and sequence-number bookkeeping. Every frame written
// consumes the next send sequence number; every frame read must carry a
// strictly increasing sequence number (a gap is tolerated and counted —
// it is the signature of a dropped frame — but a replayed or reordered
// frame is a hard protocol error).
//
// When a Lamport clock is attached, every send ticks it and stamps the
// value into the frame's context, and every receive witnesses the
// peer's value — the exchange that makes the two endpoints' journals
// causally mergeable (obs.MergeJournals).
type frameConn struct {
	c       net.Conn
	timeout time.Duration
	clock   *obs.Clock // nil = frames carry clock 0
	sendSeq uint64
	recvSeq uint64
	gaps    int

	// maxRecv is the longest payload recv accepts. A frame naming more
	// is refused on its header alone, before a byte is allocated for it.
	maxRecv int
	// out is the connection's send buffer; in holds the payload of the
	// last frame received, which recv's caller may use until the next
	// recv.
	out wireFrame
	hdr [binio.FrameHeaderLen]byte
	in  []byte
}

func newFrameConn(c net.Conn, timeout time.Duration, maxRecv int) *frameConn {
	return &frameConn{c: c, timeout: timeout, maxRecv: maxRecv}
}

// seal stamps f's header for this connection, consuming the next send
// sequence number and stamping the correlation context (with the
// freshly ticked clock). Split from write so the coordinator's fault
// injection can mutate (or swallow) the frame while still consuming the
// sequence number — exactly what a lossy link does.
func (fc *frameConn) seal(f *wireFrame, typ uint8, cx obs.Ctx) error {
	n := len(f.payload())
	if n > binio.MaxFrameLen {
		return fmt.Errorf("dist: frame payload of %d bytes exceeds cap", n)
	}
	fc.sendSeq++
	cx.Clock = fc.clock.Tick()
	binio.PutFrameHeader(f.buf, binio.FrameHeader{Type: typ, Seq: fc.sendSeq, Ctx: cx, Len: n, PayloadCRC: f.crc})
	return nil
}

// write sends a sealed frame — header and payload in one Write — under
// the connection's write deadline.
func (fc *frameConn) write(f *wireFrame) error {
	if err := fc.c.SetWriteDeadline(deadlineFrom(fc.timeout)); err != nil {
		return err
	}
	_, err := fc.c.Write(f.buf)
	return err
}

// send encodes m into the connection's send buffer and writes it as one
// frame.
func (fc *frameConn) send(typ uint8, cx obs.Ctx, m message) error {
	fc.out.set(m)
	if err := fc.seal(&fc.out, typ, cx); err != nil {
		return err
	}
	return fc.write(&fc.out)
}

// recv reads one frame under the given deadline into the connection's
// receive buffer, witnessing the peer's Lamport clock. The payload is
// handed out only after it passed its CRC; a frame that failed it comes
// back without payload together with binio.ErrFrameCorrupt — the stream
// is still aligned (and the header, context included, passed its own
// CRC) so the caller decides whether to retry.
func (fc *frameConn) recv(timeout time.Duration) (binio.Frame, error) {
	if err := fc.c.SetReadDeadline(deadlineFrom(timeout)); err != nil {
		return binio.Frame{}, err
	}
	if _, err := io.ReadFull(fc.c, fc.hdr[:]); err != nil {
		return binio.Frame{}, err
	}
	h, err := binio.ParseFrameHeader(fc.hdr[:])
	if err != nil {
		return binio.Frame{}, err
	}
	if h.Len > fc.maxRecv {
		return binio.Frame{}, fmt.Errorf("dist: frame of %d bytes exceeds the %d this connection may carry", h.Len, fc.maxRecv)
	}
	if cap(fc.in) < h.Len {
		fc.in = make([]byte, h.Len)
	}
	payload := fc.in[:h.Len]
	if _, err := io.ReadFull(fc.c, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return binio.Frame{}, err
	}
	f := binio.Frame{Type: h.Type, Seq: h.Seq, Ctx: h.Ctx}
	if f.Ctx.Clock != 0 {
		fc.clock.Witness(f.Ctx.Clock)
	}
	if f.Seq <= fc.recvSeq {
		return f, fmt.Errorf("dist: frame seq %d replayed (last %d)", f.Seq, fc.recvSeq)
	}
	if f.Seq > fc.recvSeq+1 {
		fc.gaps++
	}
	fc.recvSeq = f.Seq
	if crc32.ChecksumIEEE(payload) != h.PayloadCRC {
		return f, binio.ErrFrameCorrupt
	}
	f.Payload = payload
	return f, nil
}

// sendErr reports a worker-side failure; best-effort (the peer may be
// gone).
func (fc *frameConn) sendErr(cx obs.Ctx, epoch, step int, code uint8, text string) {
	_ = fc.send(msgError, cx, &errMsg{Epoch: epoch, Step: step, Code: code, Text: text})
}

func (fc *frameConn) Close() error { return fc.c.Close() }

// isTimeout reports whether err is a connection deadline expiry, the
// retryable kind of I/O failure.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
