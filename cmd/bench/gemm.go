package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"samplednn/internal/pool"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// The gemm suite: a serial-vs-parallel sweep of the packed kernels under
// the block sizes every training and serving run uses, at square sizes
// and worker counts benchmark/'s tensor.*_gflops probes (one shape,
// serial) do not visit. The paper's wall-clock baseline is
// multi-threaded PyTorch on one CPU socket; this sweep measures how far
// the worker-pool kernels close that gap on the host, and doubles as a
// determinism check — every parallel result is compared bit-for-bit
// against the 1-worker run before timing is reported.
//
// Timing is min-of-N: each point runs the kernel repeatedly until the
// budget elapses (at least three runs) and reports the fastest run.
// The minimum estimates the noise-free kernel time — scheduler
// preemption and frequency transitions only ever add time — while the
// run count and the sample standard deviation are recorded so a noisy
// measurement is visible in the report rather than silently averaged in.

// gemmGateTolerance is the fraction of a baseline's GFLOPS a serial row
// must keep to pass the gate.
const gemmGateTolerance = 0.8

// gemmPoint is one (kernel, size, workers) measurement.
type gemmPoint struct {
	Kernel  string  `json:"kernel"`
	Size    int     `json:"size"` // square operand dimension n (n×n by n×n)
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"` // fastest of Runs samples
	GFLOPS  float64 `json:"gflops"`    // 2·n³ multiply-adds per op
	// Runs is the number of timed samples behind NsPerOp.
	Runs int `json:"runs"`
	// StddevNs is the sample standard deviation across the Runs samples;
	// large values relative to NsPerOp flag a noisy measurement.
	StddevNs float64 `json:"stddev_ns"`
	// SpeedupVsSerial is ns_per_op(1 worker) / ns_per_op(this point).
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// BitIdentical reports whether this run's output matched the serial
	// output bit-for-bit (the kernels' determinism contract).
	BitIdentical bool `json:"bit_identical"`
}

// gemmReport is the BENCH_gemm.json payload.
type gemmReport struct {
	// BlockConfig is the packed-GEMM block configuration the sweep (and
	// every other binary) ran under.
	BlockConfig tensor.BlockConfig `json:"block_config"`
	Sizes       []int              `json:"sizes"`
	Workers     []int              `json:"workers"`
	Points      []gemmPoint        `json:"points"`
	Notes       []string           `json:"notes,omitempty"`
}

// gemmKernel adapts one tensor kernel to the square benchmark harness.
type gemmKernel struct {
	name string
	run  func(out, a, b *tensor.Matrix)
}

func gemmKernels() []gemmKernel {
	return []gemmKernel{
		{"matmul", func(out, a, b *tensor.Matrix) { tensor.MatMulInto(out, a, b) }},
		{"transA", func(out, a, b *tensor.Matrix) { tensor.MatMulTransAInto(out, a, b) }},
		{"transB", func(out, a, b *tensor.Matrix) { tensor.MatMulTransBInto(out, a, b) }},
		{"cols25", func(out, a, b *tensor.Matrix) {
			cols := make([]int, b.Cols/4)
			for i := range cols {
				cols[i] = i * 4
			}
			tensor.MatMulCols(out, a, b, cols)
		}},
		{"sparseTransB", func(out, a, b *tensor.Matrix) { tensor.MatMulTransBSparseInto(out, a, b, nil) }},
	}
}

// timeOp measures f by min-of-N: it repeats f until budget elapses (at
// least three timed runs after one warm-up) and returns the fastest
// single run in nanoseconds, the run count, and the sample standard
// deviation.
func timeOp(f func(), budget time.Duration) (minNs float64, runs int, stddevNs float64) {
	// One warm-up call keeps first-touch page faults out of the timing.
	f()
	var samples []float64
	deadline := time.Now().Add(budget)
	for {
		start := time.Now()
		f()
		samples = append(samples, float64(time.Since(start).Nanoseconds()))
		if len(samples) >= 3 && !time.Now().Before(deadline) {
			break
		}
	}
	minNs = samples[0]
	for _, s := range samples {
		minNs = min(minNs, s)
	}
	_, stddevNs = meanStddev(samples)
	return minNs, len(samples), stddevNs
}

// sweepGEMM times every kernel at every size, serially and then at each
// worker count above one; Workers == 1 is the baseline each speedup is
// relative to and each parallel product is compared with. The per-point
// budget bounds total runtime.
func sweepGEMM(sizes, workerCounts []int, budget time.Duration) *gemmReport {
	rep := &gemmReport{Sizes: sizes, Workers: workerCounts, BlockConfig: tensor.GEMMBlockConfig()}
	if runtime.NumCPU() == 1 {
		rep.Notes = append(rep.Notes,
			"single-CPU host: worker sweeps measure scheduling overhead only; multi-core hosts show near-linear kernel speedup")
	}
	for _, n := range sizes {
		g := rng.New(uint64(4000 + n))
		a := tensor.New(n, n)
		b := tensor.New(n, n)
		g.GaussianSlice(a.Data, 0, 1)
		g.GaussianSlice(b.Data, 0, 1)
		// sparseTransB wants a sparse left operand; give a 90% zeros at
		// half the rows so both dispatch paths run.
		aSparse := tensor.New(n, n)
		for i := 0; i < n/2; i++ {
			row := aSparse.RowView(i)
			for j := range row {
				if g.Float64() < 0.1 {
					row[j] = g.NormFloat64()
				}
			}
		}
		for i := n / 2; i < n; i++ {
			copy(aSparse.RowView(i), a.RowView(i))
		}
		for _, k := range gemmKernels() {
			left := a
			if k.name == "sparseTransB" {
				left = aSparse
			}
			point := func(w int) (gemmPoint, *tensor.Matrix) {
				out := tensor.New(n, n)
				p := pool.New(w)
				tensor.SetPool(p)
				ns, runs, sd := timeOp(func() { k.run(out, left, b) }, budget)
				tensor.SetPool(nil)
				p.Close()
				return gemmPoint{
					Kernel: k.name, Size: n, Workers: w,
					NsPerOp: ns, GFLOPS: 2 * float64(n) * float64(n) * float64(n) / ns,
					Runs: runs, StddevNs: sd,
				}, out
			}
			serial, serialOut := point(1)
			serial.SpeedupVsSerial, serial.BitIdentical = 1, true
			rep.Points = append(rep.Points, serial)
			for _, w := range workerCounts {
				if w <= 1 {
					continue
				}
				p, out := point(w)
				p.SpeedupVsSerial = serial.NsPerOp / p.NsPerOp
				p.BitIdentical = bitsSame(serialOut, out)
				rep.Points = append(rep.Points, p)
			}
		}
	}
	return rep
}

func bitsSame(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// runGEMM is the gemm suite: the sweep, one line per row, and an error
// for any parallel product that differs from the serial one.
func runGEMM(stdout io.Writer, sizes, workerCounts []int, budget time.Duration) (measured, error) {
	rep := sweepGEMM(sizes, workerCounts, budget)
	m := measured{report: rep, runs: rep.Points[0].Runs}
	for _, p := range rep.Points {
		fmt.Fprintf(stdout, "%-14s n=%-5d workers=%d  %8.3f ms/op  %7.2f GFLOPS  speedup %.2fx  (min of %d, stddev %.2f ms)\n",
			p.Kernel, p.Size, p.Workers, p.NsPerOp/1e6, p.GFLOPS, p.SpeedupVsSerial, p.Runs, p.StddevNs/1e6)
		if !p.BitIdentical {
			return m, fmt.Errorf("kernel %s n=%d workers=%d: parallel result not bit-identical to serial",
				p.Kernel, p.Size, p.Workers)
		}
		m.runs = min(m.runs, p.Runs)
		m.spread = max(m.spread, p.StddevNs/p.NsPerOp)
	}
	return m, nil
}

// gateGEMM fails when a serial (workers=1) row present in both the
// baseline artifact and the fresh one lost more than the tolerated share
// of its GFLOPS. Rows only one side has are not compared — but a gate
// that compared nothing (a renamed kernel, a baseline from another
// sweep or format) has not passed.
func gateGEMM(base []byte, fresh ledger) (string, error) {
	var old struct {
		Env    envelope   `json:"env"`
		Report gemmReport `json:"report"`
	}
	if err := json.Unmarshal(base, &old); err != nil {
		return "", err
	}
	type row struct {
		kernel string
		size   int
	}
	was := make(map[row]float64)
	for _, p := range old.Report.Points {
		if p.Workers == 1 && p.GFLOPS > 0 {
			was[row{p.Kernel, p.Size}] = p.GFLOPS
		}
	}
	compared := 0
	for _, p := range fresh.Report.(*gemmReport).Points {
		base, ok := was[row{p.Kernel, p.Size}]
		if p.Workers != 1 || !ok {
			continue
		}
		compared++
		if p.GFLOPS < gemmGateTolerance*base {
			return "", fmt.Errorf("%s@%d fell to %.2f GFLOPS, below %.0f%% of the baseline's %.2f",
				p.Kernel, p.Size, p.GFLOPS, 100*gemmGateTolerance, base)
		}
	}
	if compared == 0 {
		return "", fmt.Errorf("no serial row in common, nothing was compared\n  baseline: %+v\n  this run: %+v", old.Env, fresh.Env)
	}
	return fmt.Sprintf("%d serial rows within %.0f%%", compared, 100*gemmGateTolerance), nil
}
