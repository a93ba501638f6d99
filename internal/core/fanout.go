package core

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// ParallelALSH is the multi-worker variant of ALSH-approx the paper
// repeatedly credits for the method's practical speed (§5.2, §9.2,
// §10.4): each sample in a batch is processed independently — its own
// hash lookups, its own sparse forward/backward over its own active sets
// — across worker goroutines, and the resulting sparse gradients are
// merged and applied once per layer.
//
// It is the ALSH loop with the step replaced by a per-row fan-out: every
// worker is a shadow of the loop that runs the ordinary step on one row
// without applying it. Added here are the fan-out, panic containment,
// and the gradient merge. The weights are read-only during the parallel
// phase and updated in a single merge step, so the scheme is race-free
// (a deliberate departure from SLIDE's lock-free HOGWILD updates with
// the same sparse-update structure). Rows are assigned statically (row i
// to worker i mod n), so every worker's stream sees the same rows in the
// same order and runs are reproducible for a fixed worker count.
type ParallelALSH struct {
	*loop           // its lanes are the workers, one per goroutine
	errs    []error // each lane's first recovered panic of the current step
	results []rowResult

	// Merge-phase scratch, reused so the per-batch merge does not
	// allocate: union and seen collect each hidden layer's updated
	// columns, outW/outB accumulate the dense output-layer gradient.
	union [][]int
	seen  [][]bool
	outW  *tensor.Matrix
	outB  []float64
}

// rowResult carries one sample's loss and gradients: compact over cols
// for a hidden layer, dense for the output layer.
type rowResult struct {
	loss  float64
	cols  [][]int
	grads []nn.Grads
}

// NewParallelALSH builds the multi-worker trainer.
func NewParallelALSH(net *nn.Network, optim opt.Optimizer, cfg ALSHConfig, workers int, g *rng.RNG) (*ParallelALSH, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: worker count %d must be positive", workers)
	}
	base, err := newALSHLoop("alsh-parallel", net, optim, cfg, g)
	if err != nil {
		return nil, err
	}
	p := &ParallelALSH{loop: base}
	last := len(net.Layers) - 1
	p.union = make([][]int, last)
	p.seen = make([][]bool, last)
	for i := 0; i < last; i++ {
		p.seen[i] = make([]bool, net.Layers[i].FanOut())
		p.sc[i].grads = net.Layers[i].ZeroGrads()
	}
	p.outW = tensor.New(net.Layers[last].FanIn(), net.Layers[last].FanOut())
	p.outB = make([]float64, net.Layers[last].FanOut())
	for w := 0; w < workers; w++ {
		p.lanes = append(p.lanes, base.shadow(g.Split()))
	}
	p.errs = make([]error, workers)
	return p, nil
}

// Step processes every row of the batch in parallel, each with its own
// per-sample active sets, then merges and applies the sparse gradients.
// A panic in a worker goroutine is contained and reported as a NaN loss;
// callers that can handle errors (the trainer) use TryStep instead.
func (p *ParallelALSH) Step(x *tensor.Matrix, y []int) float64 {
	loss, err := p.TryStep(x, y)
	if err != nil {
		return math.NaN()
	}
	return loss
}

// runSample steps lane w on row i without applying it, converting a
// panic anywhere below (hash lookup, kernel, label check) into an error
// so one bad sample cannot take down the process or strand the others.
func (p *ParallelALSH) runSample(w int, x *tensor.Matrix, y []int, i int, res *rowResult) {
	defer func() {
		if r := recover(); r != nil && p.errs[w] == nil {
			p.errs[w] = fmt.Errorf("core: parallel worker: sample %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	lane := p.lanes[w]
	if res.grads == nil {
		res.grads = make([]nn.Grads, len(lane.sc))
		res.cols = make([][]int, len(lane.sc))
	}
	res.loss = lane.step(x.RowRange(i, i+1), y[i:i+1], res.grads)
	for li, sc := range lane.sc {
		res.cols[li] = sc.cols // freshly allocated by every pick, so safe to keep
	}
}

// TryStep is Step with fault containment surfaced as an error: if any
// worker panics, the whole batch is discarded — no gradient is applied,
// the weights are untouched — and the first recovered panic is returned.
func (p *ParallelALSH) TryStep(x *tensor.Matrix, y []int) (float64, error) {
	if x.Rows != len(y) {
		return 0, fmt.Errorf("core: %d rows vs %d labels", x.Rows, len(y))
	}
	layers := p.net.Layers
	last := len(layers) - 1

	p.lap(nil)
	if cap(p.results) < x.Rows {
		p.results = make([]rowResult, x.Rows)
	}
	results := p.results[:x.Rows]

	var wg sync.WaitGroup
	nw := min(len(p.lanes), x.Rows)
	tr := trace.Active()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		tid := trace.TIDALSHWorker + w
		if tr != nil {
			tr.NameThread(tid, fmt.Sprintf("alsh worker %d", w))
		}
		//lint:ignore raw-goroutine per-worker ALSH lanes pin worker-owned scratch and carry their own recover (runSample); pool tasks cannot guarantee worker affinity
		go func(w int) {
			defer wg.Done()
			// Later samples still run after a failure (and may fail
			// independently); the batch is already doomed.
			p.errs[w] = nil
			for i := w; i < x.Rows; i += nw {
				sp := tr.BeginTID("alsh", "sample", tid)
				p.runSample(w, x, y, i, &results[i])
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range p.errs[:nw] {
		if err != nil {
			return 0, err
		}
	}
	p.lap(&p.timing.Forward) // parallel compute phase

	// Merge: output layer densely, hidden layers by column union. All
	// merge scratch is owned by p and reused across batches.
	var loss float64
	p.outW.Zero()
	clear(p.outB)
	for _, r := range results {
		loss += r.loss
		tensor.AddInPlace(p.outW, r.grads[last].W)
		tensor.Axpy(1, r.grads[last].B, p.outB)
	}
	inv := 1 / float64(x.Rows)
	p.outW.Scale(inv)
	tensor.ScaleVec(inv, p.outB)
	p.apply(last, layers[last], nn.Grads{W: p.outW, B: p.outB}, nil)

	for li := 0; li < last; li++ {
		l := layers[li]
		grads := p.sc[li].grads
		union := p.union[li][:0]
		seen := p.seen[li]
		for ri := range results {
			r, g := &results[ri], results[ri].grads[li]
			// Record per-sample active-set sizes here in the merge phase:
			// it is single-threaded, so the observation order is stable.
			p.index.observe(li, len(r.cols[li]))
			for ci, col := range r.cols[li] {
				if !seen[col] {
					seen[col] = true
					union = append(union, col)
				}
				// Accumulate the compact gradient column into the
				// full-width scratch.
				for row := 0; row < l.FanIn(); row++ {
					grads.W.Data[row*l.FanOut()+col] += inv * g.W.Data[row*g.W.Cols+ci]
				}
				grads.B[col] += inv * g.B[ci]
			}
		}
		p.union[li] = union
		p.applyCols(li, l, union)
		for _, c := range union {
			seen[c] = false
		}
	}
	p.lap(&p.timing.Backward)

	p.index.maintain(p.net, x.Rows)
	p.lap(&p.timing.Maintain)
	return loss * inv, nil
}
