// Package binio provides the little-endian primitives shared by the
// repo's binary serialization layers: network snapshots (internal/nn),
// optimizer state blobs (internal/opt), method run-time state
// (internal/core), and the full training checkpoint (internal/train).
//
// Every value is written little-endian. Variable-length data is
// length-prefixed with a uint32, and the readers validate lengths against
// a hard cap so a corrupt prefix fails with an error instead of a
// multi-gigabyte allocation.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// MaxBlobLen caps any single length-prefixed field. Checkpoints hold
// whole weight matrices, so the cap is generous (1 GiB) while still
// rejecting nonsense lengths from corrupt or truncated inputs.
const MaxBlobLen = 1 << 30

// WriteU8 writes one byte.
func WriteU8(w io.Writer, v uint8) error {
	_, err := w.Write([]byte{v})
	return err
}

// ReadU8 reads one byte.
func ReadU8(r io.Reader) (uint8, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteBool writes a bool as one byte (0 or 1).
func WriteBool(w io.Writer, v bool) error {
	if v {
		return WriteU8(w, 1)
	}
	return WriteU8(w, 0)
}

// ReadBool reads a bool written by WriteBool.
func ReadBool(r io.Reader) (bool, error) {
	b, err := ReadU8(r)
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("binio: bool byte %d", b)
	}
	return b == 1, nil
}

// WriteU32 writes a uint32.
func WriteU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// ReadU32 reads a uint32.
func ReadU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU64 writes a uint64.
func WriteU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// ReadU64 reads a uint64.
func ReadU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteI64 writes an int64 (two's complement).
func WriteI64(w io.Writer, v int64) error { return WriteU64(w, uint64(v)) }

// ReadI64 reads an int64.
func ReadI64(r io.Reader) (int64, error) {
	v, err := ReadU64(r)
	return int64(v), err
}

// WriteF64 writes a float64 by its IEEE-754 bits.
func WriteF64(w io.Writer, v float64) error { return WriteU64(w, math.Float64bits(v)) }

// ReadF64 reads a float64.
func ReadF64(r io.Reader) (float64, error) {
	v, err := ReadU64(r)
	return math.Float64frombits(v), err
}

// WriteBytes writes a uint32 length prefix followed by the bytes.
func WriteBytes(w io.Writer, b []byte) error {
	if len(b) > MaxBlobLen {
		return fmt.Errorf("binio: blob of %d bytes exceeds cap", len(b))
	}
	if err := WriteU32(w, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadBytes reads a blob written by WriteBytes.
func ReadBytes(r io.Reader) ([]byte, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if n > MaxBlobLen {
		return nil, fmt.Errorf("binio: implausible blob length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteString writes a length-prefixed UTF-8 string.
func WriteString(w io.Writer, s string) error { return WriteBytes(w, []byte(s)) }

// ReadString reads a string written by WriteString.
func ReadString(r io.Reader) (string, error) {
	b, err := ReadBytes(r)
	return string(b), err
}

// AppendFloats appends the WriteFloats encoding of vals — a uint32
// count, then each value's IEEE-754 bits — to dst and returns the
// extended slice. It is the one float-slice encoder: a caller that owns
// its buffer (a dist frame) pays a single pass and no allocation once
// the buffer has grown.
func AppendFloats(dst []byte, vals []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vals)))
	n := len(dst)
	dst = slices.Grow(dst, 8*len(vals))[:n+8*len(vals)]
	EncodeFloats(dst[n:], vals)
	return dst
}

// EncodeFloats writes the IEEE-754 bits of vals, with no count in
// front, into the first 8·len(vals) bytes of dst.
func EncodeFloats(dst []byte, vals []float64) {
	dst = dst[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// DecodeFloats fills dst from the first 8·len(dst) bytes of src, which
// the caller has checked are there.
func DecodeFloats(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// floatBlock is how many values WriteFloats and ReadFloats move per
// Write/Read: a 4 KiB staging block, so a slice of any length costs no
// temporary of its own size.
const floatBlock = 512

// WriteFloats writes a uint32 count followed by the raw float64 bits.
func WriteFloats(w io.Writer, vals []float64) error {
	if 8*len(vals) > MaxBlobLen {
		return fmt.Errorf("binio: float slice of %d entries exceeds cap", len(vals))
	}
	if err := WriteU32(w, uint32(len(vals))); err != nil {
		return err
	}
	var buf [8 * floatBlock]byte
	for len(vals) > 0 {
		k := min(len(vals), floatBlock)
		EncodeFloats(buf[:], vals[:k])
		if _, err := w.Write(buf[:8*k]); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// ReadFloats reads a slice written by WriteFloats.
func ReadFloats(r io.Reader) ([]float64, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if 8*int(n) > MaxBlobLen {
		return nil, fmt.Errorf("binio: implausible float count %d", n)
	}
	out := make([]float64, n)
	var buf [8 * floatBlock]byte
	for rest := out; len(rest) > 0; {
		k := min(len(rest), floatBlock)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		DecodeFloats(rest[:k], buf[:])
		rest = rest[k:]
	}
	return out, nil
}

// WriteInts writes a uint32 count followed by the values as int64s.
func WriteInts(w io.Writer, vals []int) error {
	if err := WriteU32(w, uint32(len(vals))); err != nil {
		return err
	}
	for _, v := range vals {
		if err := WriteI64(w, int64(v)); err != nil {
			return err
		}
	}
	return nil
}

// ReadInts reads a slice written by WriteInts.
func ReadInts(r io.Reader) ([]int, error) {
	n, err := ReadU32(r)
	if err != nil {
		return nil, err
	}
	if 8*int(n) > MaxBlobLen {
		return nil, fmt.Errorf("binio: implausible int count %d", n)
	}
	out := make([]int, n)
	for i := range out {
		v, err := ReadI64(r)
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}
