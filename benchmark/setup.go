package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"samplednn/internal/dataset"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/rng"
	"samplednn/internal/serve"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

const (
	inputs  = 784 // synthetic MNIST
	classes = 10
	hidden  = 3
)

// maxConns caps load generation: the clients share the host with the
// server they drive, so more connections than CPUs would measure the
// scheduler.
func maxConns() int { return min(runtime.NumCPU(), 2) }

// payload is one request body with the predictions a local forward pass
// of the served network gives for it.
type payload struct {
	body []byte
	want []int
}

// fixture is everything a run builds before its first timed operation.
type fixture struct {
	w    workload
	seed uint64

	ds       *dataset.Dataset // training stage
	distOpts dataset.Options  // provenance workers regenerate distDS from
	distDS   *dataset.Dataset

	ckPath string
	reg    *obs.Registry // serve's registry
	server *serve.Server
	http   *http.Server
	served chan error // Serve's return value
	url    string
	rows1  []payload
	rows32 []payload
}

func (w workload) arch() nn.Config { return nn.Uniform(inputs, w.Width, hidden, classes) }

func mnist(seed uint64, train, test int) (*dataset.Dataset, dataset.Options, error) {
	// MaxVal 1: no stage uses the validation split, and 0 would mean the
	// paper's 5000 samples.
	o := dataset.Options{Seed: seed, MaxTrain: train, MaxTest: test, MaxVal: 1}
	ds, err := dataset.Generate("mnist", o)
	return ds, o, err
}

// setup builds the fixture: datasets, the served checkpoint, the server
// on a loopback listener, and the request payloads with their expected
// predictions. dir holds the checkpoint.
func setup(w workload, seed uint64, dir string) (*fixture, error) {
	f := &fixture{w: w, seed: seed, reg: obs.NewRegistry()}
	var err error
	if f.ds, _, err = mnist(seed, w.TrainN, w.EvalN); err != nil {
		return nil, err
	}
	if f.distDS, f.distOpts, err = mnist(seed+1, w.DistN, 50); err != nil {
		return nil, err
	}

	netw, err := nn.NewNetwork(w.arch(), rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if err := netw.Save(&blob); err != nil {
		return nil, err
	}
	f.ckPath = filepath.Join(dir, "served.snck")
	ck := &train.Checkpoint{Epoch: 1, MethodName: "standard", NetBlob: blob.Bytes()}
	if err := ck.WriteFile(f.ckPath); err != nil {
		return nil, err
	}
	f.server = serve.NewServer(serve.Options{Registry: f.reg})
	if _, err := f.server.LoadAndSwap(f.ckPath); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.http = &http.Server{
		Handler:      f.server.Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	f.served = make(chan error, 1)
	//lint:ignore raw-goroutine Serve blocks until close() shuts the server down and then reports on f.served, so it cannot be a bounded pool task
	go func() { f.served <- f.http.Serve(ln) }()
	f.url = "http://" + ln.Addr().String()

	g := rng.New(seed + 3)
	if f.rows1, err = payloads(netw, g, 16, 1); err != nil {
		return nil, err
	}
	if f.rows32, err = payloads(netw, g, 8, 32); err != nil {
		return nil, err
	}
	return f, nil
}

// close stops the server and waits for its goroutine.
func (f *fixture) close() error {
	err := f.http.Close()
	if serr := <-f.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

func payloads(netw *nn.Network, g *rng.RNG, n, rows int) ([]payload, error) {
	out := make([]payload, n)
	for i := range out {
		x := tensor.New(rows, inputs)
		g.GaussianSlice(x.Data, 0, 1)
		req := make([][]float64, rows)
		for r := range req {
			req[r] = x.RowView(r)
		}
		body, err := json.Marshal(map[string]any{"rows": req})
		if err != nil {
			return nil, fmt.Errorf("encoding payload: %w", err)
		}
		out[i] = payload{body: body, want: netw.Predict(x)}
	}
	return out, nil
}
