package probe

import (
	"math"
	"testing"

	"samplednn/internal/core"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
	"samplednn/internal/theory"
)

// task builds a small separable classification problem.
func task(seed uint64, n, dim, classes int) (*tensor.Matrix, []int) {
	g := rng.New(seed)
	x := tensor.New(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = c
		row := x.RowView(i)
		g.GaussianSlice(row, 0, 0.25)
		row[c%dim] += 2.5
	}
	return x, y
}

func deepALSH(t *testing.T, seed uint64, depth int) core.Method {
	t.Helper()
	net, err := nn.NewNetwork(nn.Uniform(8, 64, depth, 4), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewALSHApprox(net, opt.NewSGD(0.1), core.ALSHConfig{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func trainSteps(t *testing.T, m core.Method, x *tensor.Matrix, y []int, steps, batch int) {
	t.Helper()
	g := rng.New(999)
	bx := tensor.New(batch, x.Cols)
	by := make([]int, batch)
	for s := 0; s < steps; s++ {
		for i := 0; i < batch; i++ {
			j := g.IntN(x.Rows)
			copy(bx.RowView(i), x.RowView(j))
			by[i] = y[j]
		}
		if loss := m.Step(bx, by); math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("loss diverged at step %d", s)
		}
	}
}

// TestALSHDepth3AgainstTheory is the probe's headline check: on a
// depth-3 ALSH-approx network the measured per-layer relative errors sit
// next to the Theorem 7.2 curve derived from the measured first-layer
// mass ratio c.
func TestALSHDepth3AgainstTheory(t *testing.T) {
	x, y := task(1, 60, 8, 4)
	m := deepALSH(t, 2, 3)
	trainSteps(t, m, x, y, 40, 4)

	pr := New(m, x, 1, 7)
	if pr == nil {
		t.Fatal("ALSH-approx must support the probe")
	}
	meas := pr.Measure()

	wantLayers := 4 // 3 hidden + exact output
	if len(meas.RelErr) != wantLayers || len(meas.ErrRatio) != wantLayers {
		t.Fatalf("got %d/%d per-layer errors, want %d", len(meas.RelErr), len(meas.ErrRatio), wantLayers)
	}
	for i, r := range meas.RelErr {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("layer %d relative error %v", i, r)
		}
	}
	if meas.ErrRatio[0] <= 0 {
		t.Fatalf("first hidden layer came out exact (err ratio %v); sampling did nothing", meas.ErrRatio[0])
	}
	if meas.MeanC <= 0 || math.IsInf(meas.MeanC, 0) {
		t.Fatalf("mean c %v", meas.MeanC)
	}
	if len(meas.Theory) != wantLayers {
		t.Fatalf("theory curve has %d entries, want %d", len(meas.Theory), wantLayers)
	}
	for k := range meas.Theory {
		want := theory.ErrorRatio(meas.MeanC, k+1)
		if meas.Theory[k] != want {
			t.Fatalf("Theory[%d] = %v, want ErrorRatio(%v, %d) = %v", k, meas.Theory[k], meas.MeanC, k+1, want)
		}
		if k > 0 && meas.Theory[k] <= meas.Theory[k-1] {
			t.Fatalf("theory curve must grow with depth: %v", meas.Theory)
		}
	}
	// The theorem predicts compounding: deeper hidden layers should not
	// shed error. Real runs are noisy, so only require the last hidden
	// layer to carry at least as much error as half the first.
	if meas.RelErr[2] < meas.RelErr[0]/2 {
		t.Errorf("error did not compound: rel_err %v", meas.RelErr)
	}
	if meas.Growth <= 1 {
		t.Errorf("fitted growth factor %v, want > 1 for a lossy sampler", meas.Growth)
	}
	t.Logf("rel_err=%v err_ratio=%v mean_c=%v growth=%v theory=%v",
		meas.RelErr, meas.ErrRatio, meas.MeanC, meas.Growth, meas.Theory)
}

// TestNilProbeTickIsFree pins the disabled-probe hot path: one nil check
// and no allocation.
func TestNilProbeTickIsFree(t *testing.T) {
	var pr *Probe
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := pr.Tick(); ok {
			t.Fatal("nil probe fired")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil probe Tick allocates %v per call", allocs)
	}
}

// TestTickCadence checks that Tick fires exactly on the configured
// cadence and stamps the cumulative batch count.
func TestTickCadence(t *testing.T) {
	x, y := task(3, 30, 8, 4)
	m := deepALSH(t, 4, 3)
	trainSteps(t, m, x, y, 5, 4)
	_ = y
	pr := New(m, x, 3, 11)
	fired := []int{}
	for i := 0; i < 10; i++ {
		if meas, ok := pr.Tick(); ok {
			fired = append(fired, meas.Batch)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

// TestProbeDoesNotPerturbTraining trains two identically seeded ALSH
// methods, one probed heavily and one not, and requires byte-identical
// weights: the probe must never consume the training RNG stream or
// mutate method state. It runs both stochastic and mini-batch: the
// multi-row union of the per-row lookups is ordered, so nothing but the
// probe could make the twins differ.
func TestProbeDoesNotPerturbTraining(t *testing.T) {
	x, y := task(5, 60, 8, 4)
	for _, batch := range []int{1, 20} {
		plain := deepALSH(t, 6, 3)
		probed := deepALSH(t, 6, 3)
		pr := New(probed, x, 1, 13)

		g1, g2 := rng.New(42), rng.New(42)
		bx := tensor.New(batch, x.Cols)
		by := make([]int, batch)
		stepFrom := func(m core.Method, g *rng.RNG) {
			for i := 0; i < batch; i++ {
				j := g.IntN(x.Rows)
				copy(bx.RowView(i), x.RowView(j))
				by[i] = y[j]
			}
			m.Step(bx, by)
		}
		for s := 0; s < 30; s++ {
			stepFrom(plain, g1)
			stepFrom(probed, g2)
			if _, ok := pr.Tick(); !ok {
				t.Fatal("probe with every=1 must fire each batch")
			}
		}
		for li, l := range plain.Net().Layers {
			pl := probed.Net().Layers[li]
			for k := range l.W.Data {
				if l.W.Data[k] != pl.W.Data[k] {
					t.Fatalf("batch %d: layer %d weight %d differs: probe perturbed training", batch, li, k)
				}
			}
			for k := range l.B {
				if l.B[k] != pl.B[k] {
					t.Fatalf("batch %d: layer %d bias %d differs: probe perturbed training", batch, li, k)
				}
			}
		}
	}
}

// TestUnsupportedMethodReturnsNil: exact training has nothing to probe.
func TestUnsupportedMethodReturnsNil(t *testing.T) {
	x, _ := task(7, 10, 8, 4)
	net, err := nn.NewNetwork(nn.Uniform(8, 16, 2, 4), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if pr := New(core.NewStandard(net, opt.NewSGD(0.1)), x, 5, 1); pr != nil {
		t.Fatal("standard method must not get a probe")
	}
}

// TestFitGrowthRecoversGeometricFactor: a synthetic error sequence
// err_k = g^k − 1 must fit back to exactly g.
func TestFitGrowthRecoversGeometricFactor(t *testing.T) {
	const g = 1.2
	rel := make([]float64, 5)
	for i := range rel {
		rel[i] = math.Pow(g, float64(i+1)) - 1
	}
	if got := fitGrowth(rel); math.Abs(got-g) > 1e-12 {
		t.Fatalf("fitted growth %v, want %v", got, g)
	}
}
