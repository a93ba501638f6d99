package tensor

import (
	"math"
	"sync"
)

// Packed, register-blocked GEMM core (classic BLIS structure, pure Go).
//
// The pre-packing kernels streamed their operands straight from the
// row-major matrices, so every large product was memory-bound (~3-4
// GFLOPS on the bench host) and the column-subset kernels walked b with
// a stride of b.Cols per element — at size 512 the cols25 kernel
// regressed *below* its 256-size throughput because every inner-product
// term was a fresh cache line. This file fixes that class of bug once,
// at the kernel layer:
//
//   - Operands are packed into contiguous, cache-sized tiles: a KC×NC
//     panel of B into column strips of width microNR, then per MC×KC
//     block of A into row strips of height microMR. Column-subset
//     products gather their columns exactly once per packed panel
//     instead of once per output element.
//   - A register-blocked micro-kernel (microMR×microNR accumulators held
//     in locals, k unrolled by four) does all the arithmetic over the
//     packed strips. The kernel accumulates with math.FMA — a
//     single fused instruction under GOAMD64=v3, and a bit-identical
//     softfloat fallback everywhere else — so the value is
//     host-independent while the throughput scales with the ISA the
//     binary was compiled for.
//
// Numerics contract: for every output element the packed path computes
// exactly
//
//	s = 0; for k ascending: s = math.FMA(a[i][k], b[k][j], s)
//
// i.e. one fused multiply-add chain in ascending-k order. KC panels
// store the running sum to out and reload it (a float64 round trip is
// exact), MC/NC boundaries touch only *which* elements a tile owns, and
// row chunks never split a k chain — so results are bit-identical for
// any worker count and any block configuration.
//
// Zero entries are never skipped: 0·NaN and 0·Inf must propagate so the
// trainer's divergence rollback fires (same contract as axpy/dot).

const (
	// microMR × microNR is the micro-kernel tile: 8 accumulators live in
	// registers while two A values and four B values stream per k step.
	// 2×4 with k unrolled by four measured fastest of the pure-Go shapes
	// on the bench host (wider tiles spill accumulators to the stack).
	microMR = 2
	microNR = 4

	// packedMinFlops is the m·k·n product size (multiply-accumulates)
	// above which the packed path beats the streaming kernels; below it
	// packing overhead dominates and the original row-local loops run.
	// Dispatch depends only on the operand shape, never on worker count
	// or data, so it is deterministic.
	packedMinFlops = 1 << 17

	// packedMinDim gates degenerate shapes (single rows/columns, tiny k)
	// onto the streaming kernels, where edge padding would waste most of
	// every packed strip.
	packedMinDim = 4
)

// BlockConfig holds the cache-blocking parameters of the packed GEMM
// loop nest: B is packed in KC×NC panels, A in MC×KC blocks. Block sizes
// change only which elements share a packed tile, never any element's
// summation chain, so results are identical under every configuration
// (TestPackedBlockConfigInvariance); only throughput moves.
type BlockConfig struct {
	MC int `json:"mc"`
	KC int `json:"kc"`
	NC int `json:"nc"`
}

// The block sizes every product runs under. They suit a ~48 KiB L1d /
// ~2 MiB L2 host: the packed A block is MC·KC·8 = 256 KiB, and one B
// strip of KC·microNR·8 = 8 KiB stays L1 resident under the
// micro-kernel.
const (
	blockMC = 128
	blockKC = 256
	blockNC = 512
)

// GEMMBlockConfig returns the cache-blocking parameters of the packed
// kernels, for reports that record what they measured.
func GEMMBlockConfig() BlockConfig {
	return BlockConfig{MC: blockMC, KC: blockKC, NC: blockNC}
}

// gview is a strided read-only view of one GEMM operand: element (r, c)
// is data[r*rs + c*cs]. It expresses plain, transposed, and (together
// with a column gather in packB) column-subset operands without copies.
type gview struct {
	data   []float64
	rs, cs int
}

// usePacked reports whether the packed path should run for an m×k by
// k×n product. Purely shape-based (see packedMinFlops).
func usePacked(m, k, n int) bool {
	return m >= packedMinDim && k >= packedMinDim && n >= packedMinDim &&
		m*k*n >= packedMinFlops
}

// packBufs holds one goroutine's packed-panel scratch between pool
// trips; packedGEMM borrows a pair per call so parallel chunks never
// share buffers.
type packBufs struct {
	a, b []float64
}

var packPool = sync.Pool{New: func() any { return new(packBufs) }}

func growSlice(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// packA copies the mcb×kcb block of a starting at row ic, k offset pc,
// into dst as microMR-row strips: strip s holds rows ic+s·MR.., laid out
// k-major so the micro-kernel reads microMR values per k step. Rows past
// mcb are zero-padded; the padded lanes compute garbage that the masked
// store never reads.
func packA(dst []float64, a gview, ic, mcb, pc, kcb int) {
	for s := 0; s < mcb; s += microMR {
		strip := dst[(s/microMR)*kcb*microMR:]
		rows := min(microMR, mcb-s)
		base0 := (ic + s) * a.rs
		off := pc * a.cs
		for k := 0; k < kcb; k++ {
			at := k * microMR
			src := base0 + off
			for r := 0; r < microMR; r++ {
				if r < rows {
					strip[at+r] = a.data[src]
				} else {
					strip[at+r] = 0
				}
				src += a.rs
			}
			off += a.cs
		}
	}
}

// packB copies the kcb×ncb panel of b starting at k offset pc, logical
// column jc, into dst as microNR-column strips, k-major. When cols is
// non-nil, logical column j reads physical column cols[j] — the single
// gather the column-subset kernels pay per panel. Columns past ncb are
// zero-padded.
func packB(dst []float64, b gview, pc, kcb, jc, ncb int, cols []int) {
	for s := 0; s < ncb; s += microNR {
		strip := dst[(s/microNR)*kcb*microNR:]
		w := min(microNR, ncb-s)
		var colOff [microNR]int
		for c := 0; c < microNR; c++ {
			if c < w {
				j := jc + s + c
				if cols != nil {
					j = cols[j]
				}
				colOff[c] = j * b.cs
			} else {
				colOff[c] = -1
			}
		}
		rowOff := pc * b.rs
		for k := 0; k < kcb; k++ {
			at := k * microNR
			for c := 0; c < microNR; c++ {
				if colOff[c] >= 0 {
					strip[at+c] = b.data[rowOff+colOff[c]]
				} else {
					strip[at+c] = 0
				}
			}
			rowOff += b.rs
		}
	}
}

// microAcc is the micro-kernel accumulator tile, row-major microMR×microNR.
type microAcc [microMR * microNR]float64

// micro64 accumulates a microMR×microNR tile over kc packed steps with
// fused multiply-adds, k unrolled by four. Each accumulator's chain is
// strictly k-ascending — the numerics contract of the file header.
func micro64(kc int, ap, bp []float64, acc *microAcc) {
	c00, c01, c02, c03 := acc[0], acc[1], acc[2], acc[3]
	c10, c11, c12, c13 := acc[4], acc[5], acc[6], acc[7]
	p := 0
	for ; p+4 <= kc; p += 4 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		a0, a1 = ap[2], ap[3]
		b0, b1, b2, b3 = bp[4], bp[5], bp[6], bp[7]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		a0, a1 = ap[4], ap[5]
		b0, b1, b2, b3 = bp[8], bp[9], bp[10], bp[11]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		a0, a1 = ap[6], ap[7]
		b0, b1, b2, b3 = bp[12], bp[13], bp[14], bp[15]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		ap = ap[8:]
		bp = bp[16:]
	}
	for ; p < kc; p++ {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		ap = ap[2:]
		bp = bp[4:]
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
}

// loadTile fills acc from out for the valid (r, c) lanes of the tile at
// (i0, logical column j0), zeroing padded lanes. On the first KC panel
// the whole tile starts at zero. cols maps logical to physical output
// columns (nil = identity).
func loadTile(acc *microAcc, out []float64, ldOut, i0, rows, j0, w int, cols []int, first bool) {
	for r := 0; r < microMR; r++ {
		for c := 0; c < microNR; c++ {
			var v float64
			if !first && r < rows && c < w {
				j := j0 + c
				if cols != nil {
					j = cols[j]
				}
				v = out[(i0+r)*ldOut+j]
			}
			acc[r*microNR+c] = v
		}
	}
}

// storeTile writes the valid lanes of acc back to out; padded lanes are
// dropped.
func storeTile(acc *microAcc, out []float64, ldOut, i0, rows, j0, w int, cols []int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < w; c++ {
			j := j0 + c
			if cols != nil {
				j = cols[j]
			}
			out[(i0+r)*ldOut+j] = acc[r*microNR+c]
		}
	}
}

// packedGEMM computes, for output rows i in [lo, hi) and logical columns
// j in [0, n):
//
//	out[i, J(j)] = Σ_k a(i, k) · b(k, J(j))   for k in [0, kdim)
//
// where J is the identity when cols is nil and J(j) = cols[j] otherwise
// (the column-subset kernels use the same mapping to gather b and to
// scatter out, leaving unlisted output columns untouched). out rows have
// stride ldOut. Callers validate shapes and index ranges; this core
// assumes them.
//
// Parallel sharding hands each chunk a [lo, hi) row range; every other
// loop bound is global, so per-element chains are chunk-independent (the
// bit-identity contract).
func packedGEMM(out []float64, ldOut int, a, b gview, kdim, n, lo, hi int, cols []int) {
	if hi <= lo || n <= 0 {
		return
	}
	if kdim == 0 {
		// An empty reduction writes zeros (matching the streaming
		// kernels), touching only the listed columns.
		for i := lo; i < hi; i++ {
			row := out[i*ldOut:]
			if cols == nil {
				for j := 0; j < n; j++ {
					row[j] = 0
				}
			} else {
				for _, j := range cols[:n] {
					row[j] = 0
				}
			}
		}
		return
	}
	packedBlocks(GEMMBlockConfig(), out, ldOut, a, b, kdim, n, lo, hi, cols)
}

// packedBlocks is packedGEMM's loop nest under an explicit block
// configuration (kdim > 0, a non-empty row range).
func packedBlocks(cfg BlockConfig, out []float64, ldOut int, a, b gview, kdim, n, lo, hi int, cols []int) {
	bufs := packPool.Get().(*packBufs)
	defer packPool.Put(bufs)
	for jc := 0; jc < n; jc += cfg.NC {
		ncb := min(cfg.NC, n-jc)
		nStrips := (ncb + microNR - 1) / microNR
		for pc := 0; pc < kdim; pc += cfg.KC {
			kcb := min(cfg.KC, kdim-pc)
			bufs.b = growSlice(bufs.b, nStrips*kcb*microNR)
			packB(bufs.b, b, pc, kcb, jc, ncb, cols)
			first := pc == 0
			for ic := lo; ic < hi; ic += cfg.MC {
				mcb := min(cfg.MC, hi-ic)
				mStrips := (mcb + microMR - 1) / microMR
				bufs.a = growSlice(bufs.a, mStrips*kcb*microMR)
				packA(bufs.a, a, ic, mcb, pc, kcb)
				for jr := 0; jr < ncb; jr += microNR {
					bs := bufs.b[(jr/microNR)*kcb*microNR:][:kcb*microNR]
					w := min(microNR, ncb-jr)
					for ir := 0; ir < mcb; ir += microMR {
						as := bufs.a[(ir/microMR)*kcb*microMR:][:kcb*microMR]
						rows := min(microMR, mcb-ir)
						var acc microAcc
						loadTile(&acc, out, ldOut, ic+ir, rows, jc+jr, w, cols, first)
						micro64(kcb, as, bs, &acc)
						storeTile(&acc, out, ldOut, ic+ir, rows, jc+jr, w, cols)
					}
				}
			}
		}
	}
}
