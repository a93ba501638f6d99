package tensor

import (
	"math"
	"testing"

	"samplednn/internal/rng"
)

// Property tests for the packed register-blocked GEMM core: every packed
// kernel is pinned against a naive triple-loop reference implementing
// the documented summation contract — exact (bit-for-bit) equality.

// naiveFMA is the float64 reference: an ascending-k fused-multiply-add
// chain per element, the exact contract of packed.go.
func naiveFMA(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s = math.FMA(a.Data[i*a.Cols+k], b.Data[k*b.Cols+j], s)
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// packedShapes exercises degenerate sizes (0×N, 1×1, empty reduction),
// dimensions that are not multiples of the micro-tile or cache blocks,
// and sizes straddling the packed-dispatch threshold. Shapes at or above
// the threshold take the packed path; the rest pin the streaming
// kernels' equivalence on the same harness.
var packedShapes = [][3]int{
	{0, 8, 8},
	{8, 0, 8},
	{8, 8, 0},
	{1, 1, 1},
	{1, 100, 1},
	{4, 4, 4},
	{64, 64, 64},    // exactly the packed threshold
	{65, 67, 63},    // odd, above threshold, all edge tiles
	{130, 31, 520},  // wider than one NC panel, k below KC
	{257, 300, 129}, // k above KC: multi-panel accumulator round trip
}

func randDense(g *rng.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	g.GaussianSlice(m.Data, 0, 1)
	return m
}

// TestPackedMatMulExactVsNaiveFMA pins the strongest form of the f64
// contract: packed results equal the naive FMA triple loop bit-for-bit,
// with no tolerance, on every shape and at several worker counts.
func TestPackedMatMulExactVsNaiveFMA(t *testing.T) {
	g := rng.New(901)
	for _, sh := range packedShapes {
		m, k, n := sh[0], sh[1], sh[2]
		if !usePacked(m, k, n) {
			continue // streaming path has its own contract (axpy order)
		}
		a := randDense(g, m, k)
		b := randDense(g, k, n)
		want := naiveFMA(a, b)
		for _, workers := range []int{1, 3} {
			withWorkers(workers, func() {
				got := New(m, n)
				MatMulInto(got, a, b)
				if !bitsEqual(got, want) {
					t.Errorf("MatMulInto shape %v workers=%d: not bit-equal to naive FMA loop", sh, workers)
				}

				// transA: feed aᵀ so the product equals a·b.
				gotTA := New(m, n)
				MatMulTransAInto(gotTA, a.T(), b)
				if !bitsEqual(gotTA, want) {
					t.Errorf("MatMulTransAInto shape %v workers=%d: not bit-equal to naive FMA loop", sh, workers)
				}

				// transB: feed bᵀ so the product equals a·b.
				gotTB := New(m, n)
				MatMulTransBInto(gotTB, a, b.T())
				if !bitsEqual(gotTB, want) {
					t.Errorf("MatMulTransBInto shape %v workers=%d: not bit-equal to naive FMA loop", sh, workers)
				}
			})
		}
	}
}

// TestPackedMatMulColsExact pins the column-subset kernel: listed
// columns equal the naive FMA loop bit-for-bit, unlisted columns stay
// untouched — for empty, singleton, strided, and non-block-multiple
// subsets.
func TestPackedMatMulColsExact(t *testing.T) {
	g := rng.New(902)
	m, k, n := 65, 80, 200
	a := randDense(g, m, k)
	b := randDense(g, k, n)
	want := naiveFMA(a, b)
	colSets := [][]int{{}, {7}, stride(n, 3), stride(n, 1)[:129]}
	for _, cols := range colSets {
		for _, workers := range []int{1, 3} {
			withWorkers(workers, func() {
				out := New(m, n)
				out.Fill(-42)
				MatMulCols(out, a, b, cols)
				listed := make(map[int]bool, len(cols))
				for _, j := range cols {
					listed[j] = true
				}
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						got := out.At(i, j)
						if listed[j] {
							if usePacked(m, k, len(cols)) && math.Float64bits(got) != math.Float64bits(want.At(i, j)) {
								t.Fatalf("cols len %d workers=%d: out[%d,%d] = %v, want %v",
									len(cols), workers, i, j, got, want.At(i, j))
							}
						} else if got != -42 {
							t.Fatalf("cols len %d workers=%d: unlisted out[%d,%d] overwritten to %v",
								len(cols), workers, i, j, got)
						}
					}
				}
			})
		}
	}
}

// TestPackedBlockConfigInvariance pins the contract that lets the block
// sizes be constants nobody has to tune for correctness: they change
// throughput only, never any element's value. The loop nest is run
// directly under hostile configurations (blocks smaller than a
// micro-tile, KC=1, sizes off the micro-tile grid) and, on operands that
// cross every MC, KC and NC boundary in it, under the 3×3 MC×KC grid
// around the production constants; each must reproduce the production
// result bit for bit.
func TestPackedBlockConfigInvariance(t *testing.T) {
	g := rng.New(903)
	run := func(m, k, n int, cfgs []BlockConfig) {
		a := randDense(g, m, k)
		b := randDense(g, k, n)
		want := MatMul(a, b)
		for _, cfg := range cfgs {
			got := New(m, n)
			packedBlocks(cfg, got.Data, n, gview{a.Data, k, 1}, gview{b.Data, n, 1}, k, n, 0, m, nil)
			if !bitsEqual(got, want) {
				t.Errorf("%dx%dx%d: block config %+v changed MatMul values", m, k, n, cfg)
			}
		}
	}
	run(70, 90, 110, []BlockConfig{
		{MC: 2, KC: 1, NC: 4},
		{MC: 5, KC: 7, NC: 10},
		{MC: 1024, KC: 1024, NC: 1024},
	})
	var grid []BlockConfig
	for _, mc := range []int{64, 128, 256} {
		for _, kc := range []int{128, 256, 512} {
			grid = append(grid, BlockConfig{MC: mc, KC: kc, NC: 512})
		}
	}
	run(258, 514, 516, grid)
}

// TestPackedNaNPropagation extends the zero-skip regression test to the
// packed path: above the dispatch threshold, 0·NaN must still reach the
// output.
func TestPackedNaNPropagation(t *testing.T) {
	m, k, n := 64, 64, 64 // exactly the packed threshold
	if !usePacked(m, k, n) {
		t.Fatal("test shape no longer dispatches to the packed path")
	}
	a := New(m, k) // all zeros
	b := New(k, n)
	b.Set(k/2, n/2, math.NaN())
	for _, workers := range []int{1, 4} {
		withWorkers(workers, func() {
			out := New(m, n)
			MatMulInto(out, a, b)
			if !math.IsNaN(out.At(0, n/2)) {
				t.Errorf("workers=%d: packed path masked 0*NaN as %v", workers, out.At(0, n/2))
			}
		})
	}
}

// TestSharedSupportSegmentsMatchPerRow pins the sparse kernel's packed
// shared-support fast path against the per-row reference semantics: a
// batch whose rows share one support (the chained-sampling hot case)
// must produce, for every row, values within tolerance of the per-row
// gathered sum, and identical results serial vs parallel.
func TestSharedSupportSegmentsMatchPerRow(t *testing.T) {
	g := rng.New(906)
	m, k, p := 48, 400, 96  // 48·37·96 flops clears the usePacked gate
	active := stride(k, 11) // ~37 shared active columns
	a := New(m, k)
	for i := 0; i < m; i++ {
		row := a.RowView(i)
		for _, c := range active {
			row[c] = g.NormFloat64()
		}
	}
	b := randDense(g, p, k)
	segs, _ := sparseSegments(a, p, nil)
	if len(segs) != 1 || segs[0].kind != segShared {
		t.Fatalf("expected one shared-support segment, got %+v", segs)
	}
	// Per-row gathered reference (the pre-packing semantics).
	want := New(m, p)
	for i := 0; i < m; i++ {
		arow := a.RowView(i)
		for j := 0; j < p; j++ {
			brow := b.RowView(j)
			var s float64
			for _, c := range active {
				s += arow[c] * brow[c]
			}
			want.Set(i, j, s)
		}
	}
	var serial *Matrix
	withWorkers(1, func() {
		serial = New(m, p)
		MatMulTransBSparseInto(serial, a, b, nil)
	})
	if !EqualApprox(serial, want, 1e-9) {
		t.Fatal("shared-support packed path diverges from per-row gathered reference")
	}
	withWorkers(4, func() {
		par := New(m, p)
		MatMulTransBSparseInto(par, a, b, nil)
		if !bitsEqual(serial, par) {
			t.Fatal("shared-support path not bit-identical serial vs parallel")
		}
	})
}

// TestSparseSegmentsMixedRuns checks the prescan's grouping on a batch
// that interleaves dense rows, two different shared supports, and
// unique-support rows — and that the full kernel still matches the
// dense transB product within tolerance.
func TestSparseSegmentsMixedRuns(t *testing.T) {
	g := rng.New(907)
	k, p := 300, 96 // run sizes below chosen so each shared run clears usePacked
	var rows [][]float64
	denseRow := func() []float64 {
		r := make([]float64, k)
		g.GaussianSlice(r, 0, 1)
		return r
	}
	supRow := func(sup []int) []float64 {
		r := make([]float64, k)
		for _, c := range sup {
			r[c] = g.NormFloat64()
		}
		return r
	}
	supA, supB := stride(k, 7), stride(k, 13)
	for i := 0; i < 16; i++ {
		rows = append(rows, denseRow())
	}
	for i := 0; i < 64; i++ {
		rows = append(rows, supRow(supA))
	}
	for i := 0; i < 64; i++ {
		rows = append(rows, supRow(supB))
	}
	rows = append(rows, supRow([]int{3}), supRow([]int{5}))
	a := FromRows(rows)
	b := randDense(g, p, k)

	segs, _ := sparseSegments(a, p, nil)
	counts := map[uint8]int{}
	for _, s := range segs {
		counts[s.kind]++
	}
	if counts[segShared] != 2 {
		t.Errorf("expected 2 shared segments, got %d (segs %+v)", counts[segShared], segs)
	}

	want := MatMulTransB(a, b)
	got := New(a.Rows, p)
	MatMulTransBSparseInto(got, a, b, nil)
	if !EqualApprox(got, want, 1e-9) {
		t.Error("mixed-run sparse kernel diverges from dense transB")
	}
}

// TestMatMulValidationPrecedesWrites pins the bugfix satellite: a shape
// or index-range mismatch must panic with out untouched, so the
// divergence-rollback machinery never observes a half-written buffer.
func TestMatMulValidationPrecedesWrites(t *testing.T) {
	g := rng.New(908)
	a := randDense(g, 6, 5)
	b := randDense(g, 5, 7)
	cases := []struct {
		name string
		call func(out *Matrix)
	}{
		{"MatMulInto/shape", func(out *Matrix) { MatMulInto(out, a, randDense(g, 4, 7)) }},
		{"MatMulInto/out", func(out *Matrix) { MatMulInto(out.RowRange(0, 5), a, b) }},
		{"MatMulTransAInto/shape", func(out *Matrix) { MatMulTransAInto(out, randDense(g, 4, 6), b) }},
		{"MatMulTransBInto/shape", func(out *Matrix) { MatMulTransBInto(out, a, randDense(g, 7, 4)) }},
		{"MatMulCols/negative", func(out *Matrix) { MatMulCols(out, a, b, []int{0, -1}) }},
		{"MatMulCols/toolarge", func(out *Matrix) { MatMulCols(out, a, b, []int{0, 7}) }},
		{"Sparse/shape", func(out *Matrix) { MatMulTransBSparseInto(out, a, randDense(g, 7, 4), nil) }},
	}
	for _, tc := range cases {
		out := New(6, 7)
		out.Fill(1.5)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.call(out)
		}()
		for i, v := range out.Data {
			if v != 1.5 {
				t.Errorf("%s: out.Data[%d] written (%v) before validation panic", tc.name, i, v)
				break
			}
		}
	}
}
