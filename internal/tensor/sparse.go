package tensor

import "fmt"

// Sparse-aware product for chained node sampling. When consecutive
// hidden layers are column-sampled (ALSH-approx, Dropout), each layer's
// input is the previous layer's activation vector with all inactive
// nodes exactly zero — typically ≥95% zeros at the paper's active rates.
// MatMulTransBSparse exploits that: it gathers each input row's nonzero
// support once and sums only those terms, so the per-layer cost drops
// from Θ(batch·|S|·n) to Θ(batch·|S|·nnz).
//
// Column-sampled batches share one active set, so in the hot path every
// row of a has the *same* support. A serial prescan detects maximal runs
// of rows with identical support (and runs of dense rows) and routes
// each run through the packed register-blocked core: the support columns
// of a and b are gathered into contiguous scratch once per run, instead
// of b being walked with strided loads once per output element. Rows
// outside such runs keep the original per-row gathered kernel. The
// prescan is global — segment boundaries never depend on how the row
// range is later chunked — so results stay bit-identical at any worker
// count.

// sparseThreshold is the nonzero fraction below which the gathered-
// support path wins over the dense dot-product path; above it the dense
// path's sequential access is faster. The crossover was measured with
// BenchmarkSparseTransB.
const sparseThreshold = 0.4

// Segment kinds of the sparse-product prescan.
const (
	segPerRow uint8 = iota // original per-row gather/dispatch kernel
	segDense               // run of dense rows: packed transB on the originals
	segShared              // run of identical-support sparse rows: gather + packed transB
)

// sparseSeg is one maximal row run [lo, hi) with a uniform execution
// strategy; sup is the shared support for segShared segments.
type sparseSeg struct {
	lo, hi int
	kind   uint8
	sup    []int
}

// MatMulTransBSparseInto computes out = a * bᵀ like MatMulTransBInto but
// exploits row sparsity of a (see the package comment above). Shapes are
// validated before the first write to out. support is reusable scratch:
// the call returns it (possibly grown) for the next invocation.
//
// Per output element the summation runs over the row's support in
// ascending order; terms outside the support are exact zeros and
// contribute nothing. Rows in packed runs accumulate with fused
// multiply-adds, per-row fallback rows with multiply-then-add — which
// path a row takes is decided by the global prescan, never by the
// parallel chunking, so results are bit-identical at any worker count.
func MatMulTransBSparseInto(out, a, b *Matrix, support []int) []int {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransBSparse %dx%d by (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransBSparse out is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	m, p := a.Rows, b.Rows
	if m == 0 {
		return support
	}
	var segs []sparseSeg
	segs, support = sparseSegments(a, p, support)
	// MinRows = MC: a chunk that lands in a packed segment must be at
	// least one A-block tall, or every tiny chunk repacks the B panel.
	ParallelRowsCost(m, Cost{Flops: a.Cols * p, Bytes: 8 * (a.Cols + p), MinRows: blockMC}, func(lo, hi int) {
		var sup []int // per-chunk scratch for the per-row fallback
		for _, sg := range segs {
			slo, shi := max(sg.lo, lo), min(sg.hi, hi)
			if slo >= shi {
				continue
			}
			switch sg.kind {
			case segDense:
				av := gview{data: a.Data, rs: a.Cols, cs: 1}
				bv := gview{data: b.Data, rs: 1, cs: b.Cols}
				packedGEMM(out.Data, out.Cols, av, bv, a.Cols, p, slo, shi, nil)
			case segShared:
				sharedSupportGEMM(out, a, b, sg.sup, slo, shi)
			default:
				sup = sparsePerRow(out, a, b, slo, shi, sup)
			}
		}
	})
	return support
}

// sparsePerRow is the original kernel: per row, gather the support and
// dispatch between the dense dot-product path and the gathered sum.
func sparsePerRow(out, a, b *Matrix, lo, hi int, sup []int) []int {
	for i := lo; i < hi; i++ {
		arow := a.RowView(i)
		orow := out.RowView(i)
		sup = supportOf(arow, sup)
		if float64(len(sup)) >= sparseThreshold*float64(len(arow)) {
			for j := 0; j < b.Rows; j++ {
				orow[j] = dot(arow, b.RowView(j))
			}
			continue
		}
		for j := 0; j < b.Rows; j++ {
			brow := b.RowView(j)
			var s float64
			for _, k := range sup {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}
	return sup
}

// sharedSupportGEMM handles rows [lo, hi) of a run whose rows all have
// support sup: the sup columns of a's rows and of b's rows are gathered
// into contiguous scratch once, then the packed core runs a dense
// |rows|×|sup| by (p×|sup|)ᵀ product straight into out's rows.
func sharedSupportGEMM(out, a, b *Matrix, sup []int, lo, hi int) {
	rows, ks, p := hi-lo, len(sup), b.Rows
	bufs := packPool.Get().(*packBufs)
	defer packPool.Put(bufs)
	bufs.a = growSlice(bufs.a, rows*ks)
	for i := 0; i < rows; i++ {
		arow := a.RowView(lo + i)
		dst := bufs.a[i*ks : (i+1)*ks]
		for t, k := range sup {
			dst[t] = arow[k]
		}
	}
	bufs.b = growSlice(bufs.b, p*ks)
	for j := 0; j < p; j++ {
		brow := b.RowView(j)
		dst := bufs.b[j*ks : (j+1)*ks]
		for t, k := range sup {
			dst[t] = brow[k]
		}
	}
	av := gview{data: bufs.a, rs: ks, cs: 1}
	bv := gview{data: bufs.b, rs: 1, cs: ks} // gathered bᵀ
	packedGEMM(out.Data[lo*out.Cols:], out.Cols, av, bv, ks, p, 0, rows, nil)
}

// supportOf gathers the indices of row's nonzero entries into buf.
func supportOf(row []float64, buf []int) []int {
	buf = buf[:0]
	for k, v := range row {
		if v != 0 { //lint:ignore float-equality structural sparsity detection: exact zeros define the support set
			buf = append(buf, k)
		}
	}
	return buf
}

// sparseSegments is the serial prescan: it classifies every row of a
// (dense vs sparse by sparseThreshold), groups maximal runs of dense
// rows and of identical-support sparse rows, and keeps a run as a packed
// segment only when it clears the usePacked size gate — everything else
// collapses into merged per-row segments. It reuses scratch for the
// row-support walk and returns it grown, preserving the kernel's
// scratch-reuse contract.
func sparseSegments(a *Matrix, p int, scratch []int) ([]sparseSeg, []int) {
	m, k := a.Rows, a.Cols
	var segs []sparseSeg
	emit := func(lo, hi int, kind uint8, sup []int) {
		if hi <= lo {
			return
		}
		if kind == segPerRow && len(segs) > 0 {
			if last := &segs[len(segs)-1]; last.kind == segPerRow && last.hi == lo {
				last.hi = hi
				return
			}
		}
		segs = append(segs, sparseSeg{lo: lo, hi: hi, kind: kind, sup: sup})
	}
	if scratch == nil {
		scratch = make([]int, 0, 16)
	}
	cur := scratch
	var runSup []int // support of the active shared-sparse run (own copy)
	runStart := -1
	denseStart := -1
	flushShared := func(end int) {
		if runStart < 0 {
			return
		}
		if len(runSup) > 0 && usePacked(end-runStart, len(runSup), p) {
			emit(runStart, end, segShared, runSup)
			runSup = nil // owned by the segment now
		} else {
			emit(runStart, end, segPerRow, nil)
		}
		runStart = -1
	}
	flushDense := func(end int) {
		if denseStart < 0 {
			return
		}
		if usePacked(end-denseStart, k, p) {
			emit(denseStart, end, segDense, nil)
		} else {
			emit(denseStart, end, segPerRow, nil)
		}
		denseStart = -1
	}
	for i := 0; i < m; i++ {
		cur = supportOf(a.RowView(i), cur)
		if float64(len(cur)) >= sparseThreshold*float64(k) {
			flushShared(i)
			if denseStart < 0 {
				denseStart = i
			}
			continue
		}
		flushDense(i)
		if runStart >= 0 && intsEqual(runSup, cur) {
			continue
		}
		flushShared(i)
		runStart = i
		runSup = append(runSup[:0], cur...)
	}
	flushShared(m)
	flushDense(m)
	return segs, cur
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// MatMulTransBSparse is the allocating convenience form.
func MatMulTransBSparse(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulTransBSparseInto(out, a, b, nil)
	return out
}

// NonzeroFraction returns the fraction of nonzero elements in m (0 for
// an empty matrix).
func (m *Matrix) NonzeroFraction() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	nnz := 0
	for _, v := range m.Data {
		if v != 0 { //lint:ignore float-equality structural sparsity detection: exact zeros define the support set
			nnz++
		}
	}
	return float64(nnz) / float64(len(m.Data))
}
