package dist

import (
	"bytes"
	"fmt"
	"io"

	"samplednn/internal/binio"
	"samplednn/internal/nn"
	"samplednn/internal/tensor"
)

// The reader-based decoders the protocol shipped with before payloads
// were folded and decoded in place, kept as the reference the fused
// paths are compared against: they materialize every gradient through
// binio.ReadFloats and know nothing about the local model's shapes.

func refDecodeGradReply(p []byte) (*gradReply, error) {
	r := bytes.NewReader(p)
	g := &gradReply{}
	var n int
	for _, dst := range []*int{&g.Epoch, &g.Step, &n} {
		v, err := binio.ReadU32(r)
		if err != nil {
			return nil, err
		}
		*dst = int(v)
	}
	g.Shards = make([]shardGrad, n)
	for i := range g.Shards {
		s := &g.Shards[i]
		for _, dst := range []*int{&s.Index, &s.Rows} {
			v, err := binio.ReadU32(r)
			if err != nil {
				return nil, err
			}
			*dst = int(v)
		}
		var err error
		if s.Loss, err = binio.ReadF64(r); err != nil {
			return nil, err
		}
		if s.Grads, err = refReadGrads(r); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func refReadGrads(r io.Reader) ([]nn.Grads, error) {
	n, err := binio.ReadU32(r)
	if err != nil {
		return nil, err
	}
	grads := make([]nn.Grads, n)
	for i := range grads {
		rows, err := binio.ReadU32(r)
		if err != nil {
			return nil, err
		}
		cols, err := binio.ReadU32(r)
		if err != nil {
			return nil, err
		}
		data, err := binio.ReadFloats(r)
		if err != nil {
			return nil, err
		}
		if len(data) != int(rows)*int(cols) {
			return nil, fmt.Errorf("gradient %dx%d carries %d values", rows, cols, len(data))
		}
		b, err := binio.ReadFloats(r)
		if err != nil {
			return nil, err
		}
		grads[i] = nn.Grads{W: &tensor.Matrix{Rows: int(rows), Cols: int(cols), Data: data}, B: b}
	}
	return grads, nil
}
