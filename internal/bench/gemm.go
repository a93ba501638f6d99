package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"samplednn/internal/pool"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// GEMM serial-vs-parallel benchmark. The paper's wall-clock baseline is
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

// GEMMPoint is one (kernel, size, workers) measurement.
type GEMMPoint struct {
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

// GEMMReport is the BENCH_gemm.json payload.
type GEMMReport struct {
	Host struct {
		CPUs       int `json:"cpus"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"host"`
	// BlockConfig is the packed-GEMM block configuration the sweep ran
	// under (the autotuner's pick when autotuning was requested).
	BlockConfig tensor.BlockConfig `json:"block_config"`
	// Autotune holds the per-configuration autotuner measurements when
	// the sweep was preceded by AutotuneGEMM.
	Autotune *AutotuneResult `json:"autotune,omitempty"`
	Sizes    []int           `json:"sizes"`
	Workers  []int           `json:"workers"`
	Points   []GEMMPoint     `json:"points"`
	Notes    []string        `json:"notes,omitempty"`
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
	var mean float64
	for _, s := range samples {
		if s < minNs {
			minNs = s
		}
		mean += s
	}
	mean /= float64(len(samples))
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	if len(samples) > 1 {
		stddevNs = math.Sqrt(ss / float64(len(samples)-1))
	}
	return minNs, len(samples), stddevNs
}

// RunGEMMBench sweeps the GEMM kernels over operand sizes and worker
// counts. Workers == 1 is the serial baseline each speedup is relative
// to. The per-point budget bounds total runtime.
func RunGEMMBench(sizes, workerCounts []int, budget time.Duration) *GEMMReport {
	rep := &GEMMReport{Sizes: sizes, Workers: workerCounts, BlockConfig: tensor.GEMMBlockConfig()}
	rep.Host.CPUs = runtime.NumCPU()
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if rep.Host.CPUs == 1 {
		rep.Notes = append(rep.Notes,
			"single-CPU host: worker sweeps measure scheduling overhead only; multi-core hosts show near-linear kernel speedup")
	}
	defer tensor.SetPool(nil)
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
			serialOut := tensor.New(n, n)
			tensor.SetPool(pool.New(1))
			serialNs, serialRuns, serialSd := timeOp(func() { k.run(serialOut, left, b) }, budget)
			tensor.SetPool(nil)
			rep.Points = append(rep.Points, GEMMPoint{
				Kernel: k.name, Size: n, Workers: 1,
				NsPerOp: serialNs, GFLOPS: gflops(n, serialNs),
				Runs: serialRuns, StddevNs: serialSd,
				SpeedupVsSerial: 1, BitIdentical: true,
			})
			for _, w := range workerCounts {
				if w <= 1 {
					continue
				}
				p := pool.New(w)
				out := tensor.New(n, n)
				tensor.SetPool(p)
				ns, runs, sd := timeOp(func() { k.run(out, left, b) }, budget)
				tensor.SetPool(nil)
				p.Close()
				rep.Points = append(rep.Points, GEMMPoint{
					Kernel: k.name, Size: n, Workers: w,
					NsPerOp: ns, GFLOPS: gflops(n, ns),
					Runs: runs, StddevNs: sd,
					SpeedupVsSerial: serialNs / ns,
					BitIdentical:    bitsSame(serialOut, out),
				})
			}
		}
	}
	return rep
}

func gflops(n int, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return 2 * float64(n) * float64(n) * float64(n) / nsPerOp
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

// JSON renders the report for BENCH_gemm.json.
func (r *GEMMReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// gemmSizesFor picks operand sizes per scale; the acceptance target is
// the ≥512 point, present from Small up.
func gemmSizesFor(s Scale) []int {
	switch s {
	case Tiny:
		return []int{64, 128}
	case Small:
		return []int{128, 256, 512}
	default:
		return []int{256, 512, 1024}
	}
}

func init() {
	register(Experiment{
		ID:    "gemm-parallel",
		Title: "worker-pool GEMM: serial vs parallel kernels",
		Run:   runGEMMExperiment,
	})
}

// runGEMMExperiment adapts the sweep to the experiment-registry table
// format so `cmd/experiments -exp gemm-parallel` renders it.
func runGEMMExperiment(s Scale) (*Result, error) {
	budget := 50 * time.Millisecond
	if s == Paper {
		budget = 500 * time.Millisecond
	}
	rep := RunGEMMBench(gemmSizesFor(s), []int{1, 2, 4}, budget)
	res := &Result{
		ID:    "gemm-parallel",
		Title: fmt.Sprintf("GEMM kernels, serial vs worker pool (host: %d CPUs)", rep.Host.CPUs),
		PaperRef: "the paper's baseline is multi-threaded PyTorch (§8.4); parallel kernels are required " +
			"for wall-clock parity, cf. Adelman et al.'s tuned multi-threaded dense baselines",
		Columns: []string{"kernel", "size", "workers", "ms/op", "speedup", "bit-identical"},
		Notes:   rep.Notes,
	}
	for _, p := range rep.Points {
		res.Rows = append(res.Rows, []string{
			p.Kernel,
			fmt.Sprint(p.Size),
			fmt.Sprint(p.Workers),
			fmt.Sprintf("%.3f", p.NsPerOp/1e6),
			fmt.Sprintf("%.2fx", p.SpeedupVsSerial),
			fmt.Sprint(p.BitIdentical),
		})
	}
	return res, nil
}
