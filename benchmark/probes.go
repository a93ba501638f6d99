package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"samplednn/internal/binio"
	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/serve"
	"samplednn/internal/tensor"
)

// The probes time single calls into each layer's public functions, on
// fresh objects of the workload's shapes. They run after the traced
// stages, so nothing they allocate or warm perturbs a stage.

// timeOp calls fn in reps batches of inner calls and returns the time
// per call of each batch, in nanoseconds.
func timeOp(reps, inner int, fn func()) []float64 {
	fn() // warm-up
	out := make([]float64, reps)
	for r := range out {
		start := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		out[r] = float64(time.Since(start).Nanoseconds()) / float64(inner)
	}
	return out
}

func scaled(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}

// gflops turns per-call nanoseconds into GFLOPS for a call of flops
// floating-point operations.
func gflops(ns []float64, flops float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = flops / v
	}
	return out
}

func gaussian(g *rng.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	g.GaussianSlice(m.Data, 0, 1)
	return m
}

// probes emits every per-layer metric that no stage can measure from
// the outside of a whole run. loopbackP50us is the closed loop's median
// 1-row latency over HTTP.
func probes(f *fixture, r *results, loopbackP50us float64, smoke bool) error {
	reps, inner := 15, 20
	if smoke {
		reps, inner = 3, 2
	}
	w := f.w
	g := rng.New(f.seed + 40)

	// tensor: the first layer's products at the training batch shape.
	b, k, n := w.Batch, inputs, w.Width
	x, wt, delta := gaussian(g, b, k), gaussian(g, k, n), gaussian(g, b, n)
	outBN, outKN, outBK := tensor.New(b, n), tensor.New(k, n), tensor.New(b, k)
	flops := 2 * float64(b) * float64(k) * float64(n)
	r.add("tensor.matmul_gflops", gflops(timeOp(reps, inner, func() { tensor.MatMulInto(outBN, x, wt) }), flops)...)
	r.add("tensor.matmul_transa_gflops", gflops(timeOp(reps, inner, func() { tensor.MatMulTransAInto(outKN, x, delta) }), flops)...)
	r.add("tensor.matmul_transb_gflops", gflops(timeOp(reps, inner, func() { tensor.MatMulTransBInto(outBK, delta, wt) }), flops)...)
	// 5 % of the columns, the active fraction the column samplers aim at.
	cols := g.SampleWithoutReplacement(n, max(1, n/20))
	r.add("tensor.matmul_cols_gflops", gflops(timeOp(reps, inner, func() { tensor.MatMulCols(outBN, x, wt, cols) }), flops*float64(len(cols))/float64(n))...)
	sparse := tensor.New(b, n)
	for i := 0; i < b; i++ {
		for _, j := range cols {
			sparse.Set(i, j, g.NormFloat64())
		}
	}
	var support []int
	r.add("tensor.matmul_transb_sparse_gflops", gflops(timeOp(reps, inner, func() {
		support = tensor.MatMulTransBSparseInto(outBK, sparse, wt, support)
	}), flops*float64(len(cols))/float64(n))...)

	// nn: each layer's forward and backward at the batch shape, and the
	// read-only inference forward at the two served request sizes.
	netw, err := nn.NewNetwork(w.arch(), rng.New(f.seed+41))
	if err != nil {
		return err
	}
	last := len(netw.Layers) - 1
	for rep := 0; rep < reps*inner/4+1; rep++ {
		act := x
		for i, l := range netw.Layers {
			start := time.Now()
			act = l.Forward(act)
			r.add("nn.layer"+strconv.Itoa(i)+".forward_us", float64(time.Since(start).Nanoseconds())/1e3)
		}
		d := gaussian(g, b, classes)
		for i := last; i >= 0; i-- {
			start := time.Now()
			_, d = netw.Layers[i].Backward(d)
			r.add("nn.layer"+strconv.Itoa(i)+".backward_us", float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	x1, x32 := gaussian(g, 1, inputs), gaussian(g, 32, inputs)
	infer1 := scaled(timeOp(reps, inner, func() { netw.InferForward(x1) }), 1e-3)
	infer32 := scaled(timeOp(reps, inner, func() { netw.InferForward(x32) }), 1e-3)
	r.add("nn.infer_us.rows1", infer1...)
	r.add("nn.infer_us.rows32", infer32...)

	// lsh: an index over a hidden layer's columns with the ALSH method's
	// parameters, queried with ReLU-like activations.
	hw := netw.Layers[1].W
	idx, err := lsh.NewMIPSIndex(hw.Rows, hw.Cols, lsh.Params{K: 5, L: 12, M: 3, U: 0.83}, rng.New(f.seed+42))
	if err != nil {
		return err
	}
	r.add("lsh.rebuild_ms", scaled(timeOp(reps, 1, func() { idx.Rebuild(hw) }), 1e-6)...)
	sc := idx.NewQueryScratch()
	queries := gaussian(g, 64, hw.Rows)
	for i, v := range queries.Data {
		queries.Data[i] = max(v, 0)
	}
	var cand []int
	var cands []float64
	r.add("lsh.query_us", scaled(timeOp(reps, inner, func() {
		cand = idx.QueryWith(sc, queries.RowView(len(cands)%queries.Rows), cand)
		cands = append(cands, float64(len(cand)))
	}), 1e-3)...)
	r.add("lsh.candidates_per_query", cands...)
	upd := g.SampleWithoutReplacement(hw.Cols, 10)
	r.add("lsh.update_col_us", scaled(timeOp(reps, inner, func() { idx.UpdateColumns(hw, upd) }), 1e-3/float64(len(upd)))...)

	// opt: one update of every layer.
	grads := make([]nn.Grads, len(netw.Layers))
	for i, l := range netw.Layers {
		grads[i] = l.ZeroGrads()
		g.GaussianSlice(grads[i].W.Data, 0, 1e-3)
	}
	for _, o := range []opt.Optimizer{opt.NewSGD(1e-3), opt.NewAdam(1e-3)} {
		r.add("opt."+o.Name()+"_step_us", scaled(timeOp(reps, inner, func() {
			for i, l := range netw.Layers {
				o.Step(i, l.W, l.B, grads[i])
			}
		}), 1e-3)...)
	}

	// binio: one gradient-sized frame through memory.
	frame := binio.Frame{Type: 1, Seq: 1, Payload: make([]byte, 8*netw.NumParams())}
	mb := float64(len(frame.Payload)) / 1e6
	var wire bytes.Buffer
	var ioErr error
	writeNS := timeOp(reps, 1, func() {
		wire.Reset()
		if err := binio.WriteFrame(&wire, frame); err != nil {
			ioErr = err
		}
	})
	raw := wire.Bytes()
	readNS := timeOp(reps, 1, func() {
		if _, err := binio.ReadFrame(bytes.NewReader(raw)); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return fmt.Errorf("binio probe: %w", ioErr)
	}
	for i := range writeNS {
		r.add("binio.frame_write_mb_per_s", mb/(writeNS[i]/1e9))
		r.add("binio.frame_read_mb_per_s", mb/(readNS[i]/1e9))
	}

	// dataset and the trainer's evaluation.
	r.add("dataset.generate_s", scaled(timeOp(3, 1, func() {
		if _, _, err := mnist(f.seed, w.TrainN, w.EvalN); err != nil {
			ioErr = err
		}
	}), 1e-9)...)
	if ioErr != nil {
		return fmt.Errorf("dataset probe: %w", ioErr)
	}
	batcher := dataset.NewBatcher(f.ds.Train, w.Batch, rng.New(f.seed+43))
	r.add("dataset.next_batch_us", scaled(timeOp(reps, 1, func() {
		batcher.Reset()
		for bx, _ := batcher.Next(); bx != nil; bx, _ = batcher.Next() {
		}
	}), 1e-3/float64(batcher.NumBatches()))...)
	std, err := core.New("standard", netw, opt.NewSGD(w.LR), core.DefaultOptions(methodSeed))
	if err != nil {
		return err
	}
	r.add("train.eval_ms", scaled(timeOp(reps, 1, func() { core.EvalAccuracy(std, f.ds.Test.X, f.ds.Test.Y) }), 1e-6)...)

	// serve: the handler without a socket, and a model load.
	h := f.server.Handler()
	handle := func(p payload) ([]float64, error) {
		var bad error
		ns := timeOp(reps, inner, func() {
			req, err := http.NewRequest(http.MethodPost, "/predict", bytes.NewReader(p.body))
			if err != nil {
				bad = err
				return
			}
			var mw memWriter
			h.ServeHTTP(&mw, req)
			if mw.code != 0 && mw.code != http.StatusOK {
				bad = fmt.Errorf("handler answered %d: %s", mw.code, mw.body.String())
			}
		})
		return scaled(ns, 1e-3), bad
	}
	h1, err := handle(f.rows1[0])
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	h32, err := handle(f.rows32[0])
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	r.add("serve.handler_us.rows1", h1...)
	r.add("serve.handler_us.rows32", h32...)
	r.add("serve.http_overhead_us.rows1", loopbackP50us-median(h1))
	// The served network has the probe network's shape, so its forward
	// pass costs the same.
	r.add("serve.codec_share.rows32", 1-median(infer32)/median(h32))
	r.add("serve.load_ms", scaled(timeOp(reps, 1, func() {
		if _, err := serve.LoadModel(f.ckPath, serve.ModelOptions{}); err != nil {
			ioErr = err
		}
	}), 1e-6)...)
	if ioErr != nil {
		return fmt.Errorf("serve probe: %w", ioErr)
	}
	return nil
}

// memWriter is an http.ResponseWriter that keeps the reply in memory.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (m *memWriter) Header() http.Header {
	if m.header == nil {
		m.header = http.Header{}
	}
	return m.header
}
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }
func (m *memWriter) WriteHeader(code int)        { m.code = code }
