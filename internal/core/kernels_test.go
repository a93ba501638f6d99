package core

import (
	"math"
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

func randInput(seed uint64, rows, cols int) *tensor.Matrix {
	g := rng.New(seed)
	m := tensor.New(rows, cols)
	g.GaussianSlice(m.Data, 0, 1)
	return m
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// With every column active and scale 1, the sparse kernels must agree
// exactly with the dense layer forward/backward.
func TestActiveKernelsMatchDenseOnFullSet(t *testing.T) {
	g := rng.New(1)
	l := nn.NewLayer(6, 5, nn.Tanh{}, nn.InitHe, g)
	x := randInput(2, 4, 6)

	st := &layerScratch{cols: allCols(5)}
	aSparse := forwardActive(l, x, st, 1)
	aDense := l.Forward(x)
	if !tensor.EqualApprox(aSparse, aDense, 1e-12) {
		t.Fatal("sparse forward != dense forward on full active set")
	}

	dA := randInput(3, 4, 5)
	gw, gb, dPrev := activeProducts(st, activeDelta(l, dA.Clone(), st, 1))

	// Dense reference: delta = dA ⊙ f'(z), grads from layer.Backward.
	deriv := l.Act.Derivative(l.Z, l.A)
	delta := tensor.Hadamard(dA, deriv)
	denseGrads, densePrev := l.Backward(delta)

	if !tensor.EqualApprox(gw, denseGrads.W, 1e-12) {
		t.Fatal("sparse gradW != dense gradW")
	}
	for i := range gb {
		if math.Abs(gb[i]-denseGrads.B[i]) > 1e-12 {
			t.Fatal("sparse gradB != dense gradB")
		}
	}
	if !tensor.EqualApprox(dPrev, densePrev, 1e-12) {
		t.Fatal("sparse deltaPrev != dense deltaPrev")
	}
}

func TestForwardActiveZeroesInactive(t *testing.T) {
	g := rng.New(3)
	l := nn.NewLayer(4, 6, nn.Sigmoid{}, nn.InitHe, g)
	x := randInput(4, 3, 4)
	st := &layerScratch{cols: []int{1, 4}}
	a := forwardActive(l, x, st, 1)
	dense := l.Forward(x)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if j == 1 || j == 4 {
				if math.Abs(a.At(i, j)-dense.At(i, j)) > 1e-12 {
					t.Fatalf("active col %d differs from dense", j)
				}
			} else if a.At(i, j) != 0 {
				t.Fatalf("inactive col %d is %v, want 0 (even for sigmoid)", j, a.At(i, j))
			}
		}
	}
}

func TestForwardActiveScale(t *testing.T) {
	g := rng.New(4)
	l := nn.NewLayer(3, 3, nn.Identity{}, nn.InitHe, g)
	x := randInput(5, 2, 3)
	st1 := &layerScratch{cols: allCols(3)}
	a1 := forwardActive(l, x, st1, 1).Clone()
	st2 := &layerScratch{cols: allCols(3)}
	a2 := forwardActive(l, x, st2, 2)
	a1.Scale(2)
	if !tensor.EqualApprox(a1, a2, 1e-12) {
		t.Fatal("scale not applied")
	}
}

func TestScatterGradsAndClear(t *testing.T) {
	g := rng.New(5)
	l := nn.NewLayer(3, 4, nn.ReLU{}, nn.InitHe, g)
	cols := []int{0, 2}
	gws := tensor.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	gbs := []float64{7, 8}
	grads := scatterGrads(l, gws, gbs, cols, nn.Grads{})
	if grads.W.At(0, 0) != 1 || grads.W.At(0, 2) != 2 || grads.W.At(2, 2) != 6 {
		t.Fatalf("scatter wrong: %v", grads.W)
	}
	if grads.W.At(0, 1) != 0 || grads.W.At(0, 3) != 0 {
		t.Fatal("inactive columns must stay zero")
	}
	if grads.B[0] != 7 || grads.B[2] != 8 || grads.B[1] != 0 {
		t.Fatalf("bias scatter wrong: %v", grads.B)
	}
	clearGradCols(grads, cols)
	if grads.W.FrobeniusNorm() != 0 || grads.B[0] != 0 || grads.B[2] != 0 {
		t.Fatal("clear failed")
	}
}

func TestGatherHelpers(t *testing.T) {
	w := tensor.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	sub := gatherColsT(w, []int{2, 0}, nil)
	if sub.Rows != 2 || sub.Cols != 2 {
		t.Fatal("gather shape")
	}
	if sub.At(0, 0) != 3 || sub.At(0, 1) != 6 || sub.At(1, 0) != 1 {
		t.Fatalf("gather values: %v", sub)
	}
	v := gatherVec([]float64{10, 20, 30}, []int{1, 2}, nil)
	if v[0] != 20 || v[1] != 30 {
		t.Fatalf("gatherVec: %v", v)
	}
}

func TestScatterColsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	scatterCols(tensor.New(2, 4), tensor.New(2, 3), []int{0, 1})
}
