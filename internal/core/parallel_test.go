package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

func TestParallelALSHValidation(t *testing.T) {
	net := mlp(t, 1, 6, 16, 3)
	if _, err := NewParallelALSH(net, opt.NewAdam(0.01), ALSHConfig{Params: lshParamsForTest()}, 0, rng.New(2)); err == nil {
		t.Fatal("zero workers must error")
	}
}

func TestParallelALSHLearns(t *testing.T) {
	x, y := separableTask(3, 60, 8, 4)
	net := mlp(t, 4, 8, 64, 4)
	m, err := NewParallelALSH(net, opt.NewAdam(0.01), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 8,
	}, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "alsh-parallel" || m.Axis() != AxisColumns {
		t.Fatal("identity accessors wrong")
	}
	if acc := trainAndEval(t, m, x, y, 300, 4); acc < 0.75 {
		t.Fatalf("parallel alsh accuracy %v", acc)
	}
}

func TestParallelALSHMatchesSequentialStructure(t *testing.T) {
	// With one worker and batch rows processed sequentially, the
	// parallel trainer must produce finite losses and touch only active
	// columns, like the sequential trainer.
	x, y := separableTask(6, 12, 6, 3)
	net := mlp(t, 7, 6, 20, 3)
	before := net.Layers[0].W.Clone()
	m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 3,
	}, 1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	loss := m.Step(x, y)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss %v", loss)
	}
	// Some columns changed; count them.
	changed := 0
	for j := 0; j < 20; j++ {
		c0 := before.Col(j, nil)
		c1 := net.Layers[0].W.Col(j, nil)
		for i := range c0 {
			if c0[i] != c1[i] {
				changed++
				break
			}
		}
	}
	if changed == 0 || changed == 20 {
		t.Fatalf("expected sparse column updates, got %d/20 changed", changed)
	}
}

func TestParallelALSHWorkerCountInvariance(t *testing.T) {
	// The merge is order-independent (sum of per-sample gradients), so
	// 1 worker vs 4 workers must give identical updates when the workers'
	// active sets are identical. Force identical active sets by using a
	// MinActive equal to the layer width (every node active).
	x, y := separableTask(9, 8, 6, 3)
	mk := func(workers int) *tensor.Matrix {
		net := mlp(t, 10, 6, 12, 3)
		m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
			Params: lshParamsForTest(), MinActive: 12,
		}, workers, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		m.Step(x, y)
		return net.Layers[0].W.Clone()
	}
	w1 := mk(1)
	w4 := mk(4)
	if !tensor.EqualApprox(w1, w4, 1e-9) {
		t.Fatal("full-active parallel step must be worker-count invariant")
	}
}

func TestPadActive(t *testing.T) {
	g := rng.New(12)
	// Pads to the floor with distinct nodes.
	out := padActive([]int{2}, 10, 4, 0, g)
	if len(out) < 4 {
		t.Fatalf("floor violated: %v", out)
	}
	seen := map[int]bool{}
	for _, c := range out {
		if seen[c] {
			t.Fatalf("duplicates: %v", out)
		}
		seen[c] = true
	}
	// Caps at maxFrac.
	many := make([]int, 10)
	for i := range many {
		many[i] = i
	}
	out = padActive(many, 10, 2, 0.3, g)
	if len(out) != 3 {
		t.Fatalf("cap violated: %v", out)
	}
	// Does not mutate the input.
	if many[0] != 0 || many[9] != 9 {
		t.Fatal("padActive must not mutate its input")
	}
}

func TestParallelALSHWorkerPanicSurfacesAsError(t *testing.T) {
	x, y := separableTask(13, 12, 6, 3)
	net := mlp(t, 14, 6, 20, 3)
	m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 3,
	}, 3, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	before := net.Layers[0].W.Clone()
	// An out-of-range label makes the head's label check panic inside
	// whichever worker owns row 7.
	good := y[7]
	y[7] = 99
	_, err = m.TryStep(x, y)
	if err == nil {
		t.Fatal("worker panic must surface as an error")
	}
	if !strings.Contains(err.Error(), "label 99") || !strings.Contains(err.Error(), "sample 7") {
		t.Fatalf("error lacks panic context: %v", err)
	}
	// The failed batch must not have been applied.
	if !tensor.EqualApprox(before, net.Layers[0].W, 0) {
		t.Fatal("weights changed despite failed batch")
	}
	// The workers must not deadlock or stay poisoned: with the label
	// repaired, stepping again succeeds.
	y[7] = good
	loss, err := m.TryStep(x, y)
	if err != nil {
		t.Fatalf("pool poisoned after recovered panic: %v", err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss %v after recovery", loss)
	}
}

func TestParallelALSHStepReportsPanicAsNaN(t *testing.T) {
	x, y := separableTask(16, 6, 6, 3)
	net := mlp(t, 17, 6, 16, 3)
	m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 3,
	}, 2, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	y[3] = -1
	if loss := m.Step(x, y); !math.IsNaN(loss) {
		t.Fatalf("Step after worker panic returned %v, want NaN", loss)
	}
	if _, err := m.TryStep(x, y); err == nil {
		t.Fatal("TryStep must report the recovered panic")
	}
}

func TestParallelALSHEveryWorkerPanics(t *testing.T) {
	// All samples panic: the pool must still drain and terminate.
	x, y := separableTask(19, 16, 6, 3)
	net := mlp(t, 20, 6, 16, 3)
	m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 3,
	}, 4, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] = 99
	}
	done := make(chan struct{})
	go func() {
		_, err := m.TryStep(x, y)
		if err == nil {
			t.Error("expected error")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker pool deadlocked")
	}
}

func TestParallelALSHMergeScratchIsReset(t *testing.T) {
	// The reused seen/outW/outB merge scratch must leave no residue
	// between batches: two fresh trainers stepping the same data must
	// stay bit-identical across many steps, and a single trainer's
	// repeated steps must keep producing finite losses.
	x, y := separableTask(22, 10, 6, 3)
	mk := func() (*ParallelALSH, *nn.Network) {
		net := mlp(t, 23, 6, 18, 3)
		m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
			Params: lshParamsForTest(), MinActive: 18,
		}, 1, rng.New(24))
		if err != nil {
			t.Fatal(err)
		}
		return m, net
	}
	m1, net1 := mk()
	m2, net2 := mk()
	for s := 0; s < 5; s++ {
		l1 := m1.Step(x, y)
		l2 := m2.Step(x, y)
		if l1 != l2 {
			t.Fatalf("step %d: losses diverged %v vs %v", s, l1, l2)
		}
		if math.IsNaN(l1) || math.IsInf(l1, 0) {
			t.Fatalf("step %d: loss %v", s, l1)
		}
	}
	for i := range net1.Layers {
		if !tensor.EqualApprox(net1.Layers[i].W, net2.Layers[i].W, 0) {
			t.Fatalf("layer %d weights diverged", i)
		}
	}
	// Seen flags were all cleared back to false.
	for li, seen := range m1.seen {
		for c, v := range seen {
			if v {
				t.Fatalf("layer %d column %d left marked in seen scratch", li, c)
			}
		}
	}
}

func TestParallelALSHStateRoundTrip(t *testing.T) {
	x, y := separableTask(25, 8, 6, 3)
	net := mlp(t, 26, 6, 16, 3)
	m, err := NewParallelALSH(net, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 4,
	}, 2, rng.New(27))
	if err != nil {
		t.Fatal(err)
	}
	m.Step(x, y)
	var buf bytes.Buffer
	if err := m.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// A twin constructed identically accepts the state.
	net2 := mlp(t, 26, 6, 16, 3)
	m2, err := NewParallelALSH(net2, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 4,
	}, 2, rng.New(27))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if a, b := m.index, m2.index; b.samples != a.samples || b.lastUpd != a.lastUpd {
		t.Fatalf("counters not restored: %d/%d vs %d/%d", b.samples, b.lastUpd, a.samples, a.lastUpd)
	}
	// A worker-count mismatch is rejected.
	m3, err := NewParallelALSH(mlp(t, 26, 6, 16, 3), opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 4,
	}, 3, rng.New(27))
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("worker-count mismatch must be rejected")
	}
}
