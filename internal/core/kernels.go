package core

import (
	"fmt"

	"samplednn/internal/nn"
	"samplednn/internal/tensor"
)

// This file holds the gather/compute/scatter kernels of the activeCols
// rule (Dropout, ALSH-approx). The trick is standard in SLIDE-style
// systems: instead of running masked operations over the full weight
// matrix, the active columns are gathered into a compact submatrix, dense
// kernels run at Θ(batch·|S|·n) cost, and results are scattered back —
// one factor of the Θ(batch·n²) layer cost drops from n to |S|.

// gatherColsT copies the selected columns of w into the rows of dst, so
// dst is |cols| x w.Rows (the transposed submatrix). dst is grown as
// needed and returned. Destination rows are sharded over the shared
// worker pool (each is an independent column copy).
func gatherColsT(w *tensor.Matrix, cols []int, dst *tensor.Matrix) *tensor.Matrix {
	if dst == nil || dst.Rows != len(cols) || dst.Cols != w.Rows {
		dst = tensor.New(len(cols), w.Rows)
	}
	// Pure copy: cost is all bandwidth (one strided read + one write per
	// element), which the Cost model weighs instead of a flop count.
	tensor.ParallelRowsCost(len(cols), tensor.Cost{Bytes: 16 * w.Rows}, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			j := cols[r]
			row := dst.RowView(r)
			for i := 0; i < w.Rows; i++ {
				row[i] = w.Data[i*w.Cols+j]
			}
		}
	})
	return dst
}

// gatherVec copies v[j] for each j in cols into dst.
func gatherVec(v []float64, cols []int, dst []float64) []float64 {
	if len(dst) != len(cols) {
		dst = make([]float64, len(cols))
	}
	for r, j := range cols {
		dst[r] = v[j]
	}
	return dst
}

// scatterCols writes the columns of compact (batch x |cols|) into the
// listed columns of full (batch x width), leaving others untouched.
func scatterCols(full, compact *tensor.Matrix, cols []int) {
	if full.Rows != compact.Rows || compact.Cols != len(cols) {
		panic(fmt.Sprintf("core: scatter %dx%d into %dx%d via %d cols",
			compact.Rows, compact.Cols, full.Rows, full.Cols, len(cols)))
	}
	tensor.ParallelRowsCost(full.Rows, tensor.Cost{Bytes: 16 * len(cols)}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := compact.RowView(i)
			frow := full.RowView(i)
			for r, j := range cols {
				frow[j] = crow[r]
			}
		}
	})
}

// forwardActive runs the sampled feedforward of one layer: only the
// columns in st.cols are evaluated; all other activations are exactly
// zero (the sampled nodes are "active", the rest are dropped for this
// step). scale multiplies the surviving activations (inverted-dropout
// scaling; 1 for ALSH).
func forwardActive(l *nn.Layer, x *tensor.Matrix, st *layerScratch, scale float64) *tensor.Matrix {
	st.in = x
	st.wsub = gatherColsT(l.W, st.cols, st.wsub)
	st.bsub = gatherVec(l.B, st.cols, st.bsub)
	if st.zsub == nil || st.zsub.Rows != x.Rows || st.zsub.Cols != len(st.cols) {
		st.zsub = tensor.New(x.Rows, len(st.cols))
	}
	// The sparse-aware kernel exploits chained sampling: beyond the first
	// hidden layer, x is a previous layer's activation with every
	// inactive node exactly zero.
	st.support = tensor.MatMulTransBSparseInto(st.zsub, x, st.wsub, st.support)
	st.zsub.AddRowVector(st.bsub)
	st.asub = l.Act.Forward(st.zsub)
	if scale != 1 { //lint:ignore float-equality scale==1 is a bit-exact no-op skip; 1.0 is set literally, never computed
		st.asub.Scale(scale)
	}
	if st.aFull == nil || st.aFull.Rows != x.Rows || st.aFull.Cols != l.FanOut() {
		st.aFull = tensor.New(x.Rows, l.FanOut())
	} else {
		st.aFull.Zero()
	}
	scatterCols(st.aFull, st.asub, st.cols)
	return st.aFull
}

// activeDelta is the activation-derivative half of a column-sampled
// backward pass: it gathers dL/dA of this layer (full width; entries
// outside the active set are ignored) onto the active columns and
// multiplies by scale·f'(z_sub), returning the compact batch x |S|
// dL/dz. scale must match the forward scaling so d(scale·f(z))/dz is
// applied.
func activeDelta(l *nn.Layer, dA *tensor.Matrix, st *layerScratch, scale float64) *tensor.Matrix {
	batch := st.in.Rows
	deltaSub := tensor.New(batch, len(st.cols))
	for i := 0; i < batch; i++ {
		daRow := dA.RowView(i)
		dRow := deltaSub.RowView(i)
		for r, j := range st.cols {
			dRow[r] = daRow[j]
		}
	}
	deriv := l.Act.Derivative(st.zsub, st.asub)
	if scale != 1 { //lint:ignore float-equality scale==1 is a bit-exact no-op skip; 1.0 is set literally, never computed
		deriv.Scale(scale)
	}
	tensor.HadamardInPlace(deltaSub, deriv)
	return deltaSub
}

// activeProducts is the matrix-product half: from the compact dL/dz it
// produces the parameter gradients over the active columns (gradWsub is
// fanIn x |S|, gradBsub is |S|) and dL/dA of the previous layer
// (batch x fanIn, dense).
func activeProducts(st *layerScratch, deltaSub *tensor.Matrix) (gradWsub *tensor.Matrix, gradBsub []float64, dAPrev *tensor.Matrix) {
	gradWsub = tensor.MatMulTransA(st.in, deltaSub) // fanIn x |S|
	gradBsub = make([]float64, len(st.cols))
	tensor.ColSumsInto(gradBsub, deltaSub)
	dAPrev = tensor.MatMul(deltaSub, st.wsub) // batch x fanIn
	return gradWsub, gradBsub, dAPrev
}

// scatterGrads expands compact active-column gradients into a full-shape
// nn.Grads whose inactive columns are zero, writing into scratch (resized
// as needed) and returning it. The optimizer's StepCols then touches only
// the active columns, so the zero filler is never read.
func scatterGrads(l *nn.Layer, gradWsub *tensor.Matrix, gradBsub []float64, cols []int, scratch nn.Grads) nn.Grads {
	if scratch.W == nil || scratch.W.Rows != l.FanIn() || scratch.W.Cols != l.FanOut() {
		scratch = nn.Grads{W: tensor.New(l.FanIn(), l.FanOut()), B: make([]float64, l.FanOut())}
	}
	tensor.ParallelRowsCost(l.FanIn(), tensor.Cost{Bytes: 16 * len(cols)}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wrow := scratch.W.RowView(i)
			grow := gradWsub.RowView(i)
			for r, j := range cols {
				wrow[j] = grow[r]
			}
		}
	})
	for r, j := range cols {
		scratch.B[j] = gradBsub[r]
	}
	return scratch
}

// clearGradCols zeroes the previously written columns so the scratch can
// be reused next step.
func clearGradCols(g nn.Grads, cols []int) {
	tensor.ParallelRowsCost(g.W.Rows, tensor.Cost{Bytes: 8 * len(cols)}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := g.W.RowView(i)
			for _, j := range cols {
				row[j] = 0
			}
		}
	})
	for _, j := range cols {
		g.B[j] = 0
	}
}

// applyDerivative applies dL/dA ⊙ f'(z) for a dense (unsampled) layer.
func applyDerivative(l *nn.Layer, dA *tensor.Matrix) *tensor.Matrix {
	deriv := l.Act.Derivative(l.Z, l.A)
	tensor.HadamardInPlace(dA, deriv)
	return dA
}
