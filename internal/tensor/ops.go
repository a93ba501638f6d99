package tensor

import (
	"fmt"
	"math"
)

// MatMul returns a*b. It dispatches to MatMulInto with a fresh output.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a*b. out must be preallocated with shape
// a.Rows x b.Cols and must not alias a or b. All validation happens
// before the first write to out, so a mismatch panics with out intact.
//
// Large products run the packed register-blocked core (see packed.go);
// below the packing threshold the kernel uses the cache-friendly i-k-j
// loop order, streaming a row of b and a row of out sequentially. The
// dispatch depends only on the operand shape. Output rows are sharded
// over the worker pool; each element's k-ascending reduction order is
// independent of the chunking, so results are bit-identical at any
// worker count.
//
// Zero entries of a are NOT skipped: 0·NaN and 0·Inf must yield NaN so
// a diverging operand propagates into the output, which the trainer's
// non-finite-loss rollback relies on. (An earlier version skipped them
// and silently masked divergence.)
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul out is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	if usePacked(a.Rows, k, n) {
		av := gview{data: a.Data, rs: a.Cols, cs: 1}
		bv := gview{data: b.Data, rs: b.Cols, cs: 1}
		ParallelRowsCost(a.Rows, gemmRowCost(k, n), func(lo, hi int) {
			packedGEMM(out.Data, out.Cols, av, bv, k, n, lo, hi, nil)
		})
		return
	}
	ParallelRows(a.Rows, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.RowView(i)
			orow := out.RowView(i)
			for j := range orow {
				orow[j] = 0
			}
			for k, av := range arow {
				axpy(av, b.RowView(k), orow)
			}
		}
	})
}

// gemmRowCost is the per-output-row cost of an m×k by k×n float64
// product for the bandwidth-aware scheduler: k·n multiply-adds; traffic
// of one a row, one out row, and a per-row share of the packed b panel
// reloads.
func gemmRowCost(k, n int) Cost {
	return Cost{Flops: k * n, Bytes: 8 * (k + 2*n), MinRows: blockMC}
}

// MatMulNaive computes a*b with the textbook i-j-k loop order. It exists
// only as a baseline for the GEMM ablation benchmark.
func MatMulNaive(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// MatMulTransB returns a * bᵀ without materializing the transpose:
// out[i][j] = <a row i, b row j>. Shapes: a is m x n, b is p x n, out m x p.
// Backpropagation uses this for delta * Wᵀ (Eq. 1).
func MatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes out = a * bᵀ into a preallocated out. All
// validation happens before the first write to out. Large products run
// the packed core, which packs b's rows (bᵀ's columns) into contiguous
// strips once per panel; below the threshold each (i, j) entry is an
// independent dot product. Either way parallel results are
// bit-identical to serial.
func MatMulTransBInto(out, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB %dx%d by (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB out is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	if usePacked(a.Rows, a.Cols, b.Rows) {
		k, n := a.Cols, b.Rows
		av := gview{data: a.Data, rs: a.Cols, cs: 1}
		// bᵀ element (k, j) is b[j][k].
		bv := gview{data: b.Data, rs: 1, cs: b.Cols}
		ParallelRowsCost(a.Rows, gemmRowCost(k, n), func(lo, hi int) {
			packedGEMM(out.Data, out.Cols, av, bv, k, n, lo, hi, nil)
		})
		return
	}
	ParallelRows(a.Rows, a.Cols*b.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.RowView(i)
			orow := out.RowView(i)
			for j := 0; j < b.Rows; j++ {
				orow[j] = dot(arow, b.RowView(j))
			}
		}
	})
}

// MatMulTransA returns aᵀ * b without materializing the transpose.
// Shapes: a is n x m, b is n x p, out m x p. Backpropagation uses this for
// the weight gradient aᵀ * delta (Eq. 1).
func MatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes out = aᵀ * b into a preallocated out. All
// validation happens before the first write to out.
//
// Large products run the packed core: packing aᵀ's rows (columns of a)
// into contiguous micro-strips converts the strided column reads into
// one sequential pass per block — the transpose is paid once per panel
// instead of once per inner product. Below the threshold,
// parallelization is by blocks of *output* rows (columns of a): every
// chunk owns out rows [lo, hi) and accumulates all k contributions into
// them itself, so no two goroutines ever write the same row (the serial
// loop instead iterated k outermost, which would make chunks over k race
// on the whole output). In both paths the contributions to one output
// element arrive in k-ascending order regardless of chunking, so
// results are bit-identical at any worker count.
//
// Like MatMulInto, zero entries of a are not skipped, so NaN/Inf in b
// propagate (see the zero-skip note there).
func MatMulTransAInto(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA (%dx%d)ᵀ by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA out is %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	if usePacked(a.Cols, a.Rows, b.Cols) {
		k, n := a.Rows, b.Cols
		// aᵀ element (i, k) is a[k][i].
		av := gview{data: a.Data, rs: 1, cs: a.Cols}
		bv := gview{data: b.Data, rs: b.Cols, cs: 1}
		ParallelRowsCost(a.Cols, gemmRowCost(k, n), func(lo, hi int) {
			packedGEMM(out.Data, out.Cols, av, bv, k, n, lo, hi, nil)
		})
		return
	}
	ParallelRows(a.Cols, a.Rows*b.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.RowView(i)
			for j := range orow {
				orow[j] = 0
			}
		}
		for k := 0; k < a.Rows; k++ {
			arow := a.RowView(k)
			brow := b.RowView(k)
			for i := lo; i < hi; i++ {
				axpy(arow[i], brow, out.RowView(i))
			}
		}
	})
}

// MatMulCols computes, for each requested column j of b, out column j =
// a * b[:,j], leaving the other columns of out untouched (typically zero).
// This is the "sampling from the current layer" kernel of §4.2: only the
// inner products for the active nodes (columns) are evaluated, so the cost
// is Θ(rows(a) * cols(a) * len(cols)) instead of Θ(rows(a) * cols(a) * cols(b)).
//
// Shapes AND every index in cols are validated before the first write
// to out, so a bad request panics with out intact. Large subsets run
// the packed core, which gathers the requested columns of b into
// contiguous strips exactly once per packed panel — the pre-packing
// kernel instead strode the full b matrix per output element, which is
// why its throughput *fell* with matrix size once b outgrew L2.
func MatMulCols(out, a, b *Matrix, cols []int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulCols %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulCols out is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	for idx, j := range cols {
		if j < 0 || j >= b.Cols {
			panic(fmt.Sprintf("tensor: MatMulCols cols[%d] = %d out of range for %d columns", idx, j, b.Cols))
		}
	}
	if usePacked(a.Rows, a.Cols, len(cols)) {
		k, n := a.Cols, len(cols)
		av := gview{data: a.Data, rs: a.Cols, cs: 1}
		bv := gview{data: b.Data, rs: b.Cols, cs: 1}
		ParallelRowsCost(a.Rows, gemmRowCost(k, n), func(lo, hi int) {
			packedGEMM(out.Data, out.Cols, av, bv, k, n, lo, hi, cols)
		})
		return
	}
	ParallelRows(a.Rows, a.Cols*len(cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.RowView(i)
			orow := out.RowView(i)
			for _, j := range cols {
				var s float64
				for k, av := range arow {
					s += av * b.Data[k*b.Cols+j]
				}
				orow[j] = s
			}
		}
	})
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) *Matrix {
	sameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// AddInPlace sets a += b.
func AddInPlace(a, b *Matrix) {
	sameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// SubInPlace sets a -= b.
func SubInPlace(a, b *Matrix) {
	sameShape("SubInPlace", a, b)
	for i := range a.Data {
		a.Data[i] -= b.Data[i]
	}
}

// AxpyInPlace sets a += alpha*b.
func AxpyInPlace(a *Matrix, alpha float64, b *Matrix) {
	sameShape("AxpyInPlace", a, b)
	axpy(alpha, b.Data, a.Data)
}

// Scale multiplies every element of m by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// Hadamard returns the elementwise product a ⊙ b (used by Eq. 1 for
// f'(z) ⊙ backpropagated error). The flat element range is sharded over
// the worker pool; every element is independent, so results are
// bit-identical at any worker count.
func Hadamard(a, b *Matrix) *Matrix {
	sameShape("Hadamard", a, b)
	out := New(a.Rows, a.Cols)
	// One multiply per element but 24 bytes of traffic: bandwidth-bound,
	// so the cutoff is costed by bytes, not flops.
	ParallelRowsCost(len(a.Data), Cost{Flops: 1, Bytes: 24}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * b.Data[i]
		}
	})
	return out
}

// HadamardInPlace sets a ⊙= b.
func HadamardInPlace(a, b *Matrix) {
	sameShape("HadamardInPlace", a, b)
	ParallelRowsCost(len(a.Data), Cost{Flops: 1, Bytes: 24}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Data[i] *= b.Data[i]
		}
	})
}

// AddRowVector adds the 1 x Cols row vector v to every row of m (bias
// broadcast in the feedforward step).
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d for %d cols", len(v), m.Cols))
	}
	ParallelRowsCost(m.Rows, Cost{Flops: m.Cols, Bytes: 16 * m.Cols}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.RowView(i)
			for j, bv := range v {
				row[j] += bv
			}
		}
	})
}

// ColNorms returns the l2 norm of every column (the Drineas sampling
// probabilities of Eq. 6 are proportional to these). Column blocks are
// sharded over the worker pool: each chunk owns columns [lo, hi) and
// accumulates their squares over all rows itself, in the same
// row-ascending order as the serial loop, so results are bit-identical.
func (m *Matrix) ColNorms() []float64 {
	out := make([]float64, m.Cols)
	ParallelRowsCost(m.Cols, Cost{Flops: 2 * m.Rows, Bytes: 8 * m.Rows}, func(lo, hi int) {
		for i := 0; i < m.Rows; i++ {
			row := m.RowView(i)
			for j := lo; j < hi; j++ {
				out[j] += row[j] * row[j]
			}
		}
		for j := lo; j < hi; j++ {
			out[j] = math.Sqrt(out[j])
		}
	})
	return out
}

// RowNorms returns the l2 norm of every row.
func (m *Matrix) RowNorms() []float64 {
	out := make([]float64, m.Rows)
	ParallelRowsCost(m.Rows, Cost{Flops: 2 * m.Cols, Bytes: 8 * m.Cols}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Norm(m.RowView(i))
		}
	})
	return out
}

// ColSumsInto accumulates the column sums of m into dst (len m.Cols),
// overwriting it — the bias-gradient reduction of Eq. 1 (gradB = column
// sums of delta). Column blocks are sharded over the worker pool; each
// column is summed in row-ascending order, matching the serial loop, so
// results are bit-identical at any worker count.
func ColSumsInto(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto dst len %d for %d cols", len(dst), m.Cols))
	}
	ParallelRowsCost(m.Cols, Cost{Flops: m.Rows, Bytes: 8 * m.Rows}, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dst[j] = 0
		}
		for i := 0; i < m.Rows; i++ {
			row := m.RowView(i)
			for j := lo; j < hi; j++ {
				dst[j] += row[j]
			}
		}
	})
}

// FrobeniusNorm returns ||m||_F.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// ArgMaxRows returns, for each row, the index of its maximum element.
// Classification predictions are the row-wise argmax of the output layer.
func (m *Matrix) ArgMaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.RowView(i)
		best, bi := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
