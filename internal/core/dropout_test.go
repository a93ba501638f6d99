package core

import (
	"math"
	"testing"

	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

func TestAdaptiveDropoutPredictBatchUsesExpectation(t *testing.T) {
	net := mlp(t, 1, 6, 12, 3)
	m := NewAdaptiveDropout(net, opt.NewSGD(0.1), 4, 0.2, rng.New(2))
	x := randInput(3, 4, 6)

	// The expectation network scales hidden activations by π(z) < 1, so
	// its logits must differ from the plain forward's.
	plain := net.Predict(x)
	expct := m.PredictBatch(x)
	if len(plain) != len(expct) || len(expct) != 4 {
		t.Fatal("prediction lengths wrong")
	}
	// Verify the scaling analytically on a 1-hidden-layer case.
	single := mlp(t, 4, 3, 5, 2)
	ms := NewAdaptiveDropout(single, opt.NewSGD(0.1), 1, 0.5, rng.New(5))
	xi := randInput(6, 1, 3)
	// Manual expectation forward.
	act := xi
	layers := single.Layers
	for i, l := range layers {
		z := tensor.MatMul(act, l.W)
		z.AddRowVector(l.B)
		out := l.Act.Forward(z)
		if i != len(layers)-1 {
			for k, zv := range z.Data {
				out.Data[k] *= loopOf(ms).rule.(standout).keepProb(zv)
			}
		}
		act = out
	}
	want := act.ArgMaxRows()
	got := ms.PredictBatch(xi)
	if want[0] != got[0] {
		t.Fatalf("PredictBatch = %v, manual expectation = %v", got, want)
	}
}

func TestPredictBatchDefaultsToNetworkForward(t *testing.T) {
	// Only standout overrides inference; every other rule (inverted
	// dropout scaling already corrects the train/test mismatch) predicts
	// with the plain network forward.
	x := randInput(9, 5, 6)
	for _, m := range []Method{
		NewStandard(mlp(t, 10, 6, 12, 3), opt.NewSGD(0.1)),
		NewDropout(mlp(t, 20, 6, 12, 3), opt.NewSGD(0.1), 0.5, rng.New(21)),
	} {
		a := m.PredictBatch(x)
		b := m.Net().Predict(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: PredictBatch must be the network forward", m.Name())
			}
		}
	}
}

func TestEvalAccuracyHelper(t *testing.T) {
	std := NewStandard(mlp(t, 11, 6, 12, 3), opt.NewSGD(0.1))
	x := randInput(12, 4, 6)
	pred := std.PredictBatch(x)
	if EvalAccuracy(std, x, pred) != 1 {
		t.Fatal("accuracy against own predictions must be 1")
	}
	wrong := make([]int, len(pred))
	for i, p := range pred {
		wrong[i] = (p + 1) % 3
	}
	if EvalAccuracy(std, x, wrong) != 0 {
		t.Fatal("accuracy against shifted labels must be 0")
	}
	if EvalAccuracy(std, tensor.New(0, 6), nil) != 0 {
		t.Fatal("empty input accuracy must be 0")
	}
}

func TestAdaptiveDropoutMaskIsBinary(t *testing.T) {
	net := mlp(t, 13, 6, 12, 3)
	m := NewAdaptiveDropout(net, opt.NewSGD(0.01), 4, 0.3, rng.New(14))
	x, y := separableTask(15, 8, 6, 3)
	m.Step(x, y)
	for li, sc := range loopOf(m).sc[:2] {
		if sc.mask == nil {
			t.Fatalf("hidden layer %d has no mask after a step", li)
		}
		for _, v := range sc.mask.Data {
			if v != 0 && v != 1 {
				t.Fatalf("layer %d mask value %v; standout masks are 0/1 (no inverted scaling)", li, v)
			}
		}
	}
}

func TestAdaptiveDropoutKeepProbHigherForStrongNodes(t *testing.T) {
	// The defining property vs plain Dropout: a node with a strong
	// pre-activation must be kept far more often than the base rate.
	net := mlp(t, 16, 6, 12, 3)
	m := loopOf(NewAdaptiveDropout(net, opt.NewSGD(0.01), 4, 0.05, rng.New(17))).rule.(standout)
	base := m.keepProb(0)
	strong := m.keepProb(2)
	if math.Abs(base-0.05) > 1e-9 {
		t.Fatalf("base keep %v", base)
	}
	if strong < 0.9 {
		t.Fatalf("strong node keep %v; alpha=4 should push it near 1", strong)
	}
}

func TestAdaptiveDropoutConstructorValidation(t *testing.T) {
	net := mlp(t, 18, 4, 8, 2)
	for _, keep := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("baseKeep=%v should panic", keep)
				}
			}()
			NewAdaptiveDropout(net, opt.NewSGD(0.1), 1, keep, rng.New(19))
		}()
	}
}
