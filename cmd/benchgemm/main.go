// Command benchgemm runs the GEMM serial-vs-parallel kernel sweep and
// writes the results to a JSON report (BENCH_gemm.json by default), the
// artifact the Makefile `bench-gemm` target tracks.
//
// Usage:
//
//	benchgemm -sizes 128,256,512 -workers 1,2,4 -autotune \
//	          -baseline BENCH_gemm.json -out BENCH_gemm.json
//
// Every parallel measurement is validated bit-for-bit against the serial
// kernel before its timing is reported; a mismatch fails the run.
//
// With -autotune, a small grid of packed-GEMM block configurations is
// timed first and the fastest is installed for the sweep (and recorded
// in the report). With -baseline, the new serial (workers=1) GFLOPS are
// compared against the matching points of an earlier report: any kernel
// and size that lost more than 20% throughput fails the run, and the
// output file is only written when the gate passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"samplednn/internal/atomicfile"
	"samplednn/internal/bench"
)

// regressionTolerance is the fraction of baseline GFLOPS a point may
// lose before the gate fails (0.8 = fail below 80% of baseline).
const regressionTolerance = 0.8

func main() {
	var (
		out      = flag.String("out", "BENCH_gemm.json", "output JSON path")
		sizes    = flag.String("sizes", "128,256,512", "comma-separated square operand sizes")
		workers  = flag.String("workers", "1,2,4", "comma-separated worker counts (1 = serial baseline)")
		budget   = flag.Duration("budget", 100*time.Millisecond, "minimum measurement time per point")
		autotune = flag.Bool("autotune", false, "sweep packed-GEMM block configs first and install the fastest")
		baseline = flag.String("baseline", "", "prior report to gate against (fail on >20% serial GFLOPS regression)")
	)
	flag.Parse()
	sz, err := parseInts(*sizes)
	if err != nil {
		fatal(fmt.Errorf("-sizes: %w", err))
	}
	ws, err := parseInts(*workers)
	if err != nil {
		fatal(fmt.Errorf("-workers: %w", err))
	}
	if *budget <= 0 {
		fatal(fmt.Errorf("-budget %v must be positive", *budget))
	}

	var tuned *bench.AutotuneResult
	if *autotune {
		n := sz[len(sz)-1] // tune at the largest (most cache-sensitive) size
		tuned = bench.AutotuneGEMM(n, *budget)
		fmt.Printf("autotune n=%d: best MC=%d KC=%d NC=%d (%.2f GFLOPS)\n",
			n, tuned.Best.MC, tuned.Best.KC, tuned.Best.NC, tuned.Points[bestIndex(tuned)].GFLOPS)
	}

	rep := bench.RunGEMMBench(sz, ws, *budget)
	rep.Autotune = tuned
	for _, p := range rep.Points {
		fmt.Printf("%-14s n=%-5d workers=%d  %8.3f ms/op  %7.2f GFLOPS  speedup %.2fx  (min of %d, stddev %.2f ms)\n",
			p.Kernel, p.Size, p.Workers, p.NsPerOp/1e6, p.GFLOPS, p.SpeedupVsSerial, p.Runs, p.StddevNs/1e6)
		if !p.BitIdentical {
			fatal(fmt.Errorf("kernel %s n=%d workers=%d: parallel result not bit-identical to serial",
				p.Kernel, p.Size, p.Workers))
		}
	}
	if *baseline != "" {
		if err := gateAgainst(*baseline, rep); err != nil {
			fatal(err)
		}
	}
	data, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	if err := atomicfile.WriteFileBytes(*out, data); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d points, host CPUs %d)\n", *out, len(rep.Points), rep.Host.CPUs)
}

// gateAgainst fails when any serial (workers=1) point present in both
// the baseline report and the new one lost more than the allowed
// fraction of its GFLOPS. Points only one side has (new kernels, new
// sizes) pass trivially.
func gateAgainst(path string, rep *bench.GEMMReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	var base bench.GEMMReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-baseline %s: %w", path, err)
	}
	old := make(map[string]float64)
	for _, p := range base.Points {
		if p.Workers == 1 {
			old[fmt.Sprintf("%s@%d", p.Kernel, p.Size)] = p.GFLOPS
		}
	}
	compared := 0
	for _, p := range rep.Points {
		if p.Workers != 1 {
			continue
		}
		key := fmt.Sprintf("%s@%d", p.Kernel, p.Size)
		was, ok := old[key]
		if !ok || was <= 0 {
			continue
		}
		compared++
		if p.GFLOPS < regressionTolerance*was {
			return fmt.Errorf("regression gate: %s fell to %.2f GFLOPS, below %.0f%% of baseline %.2f (%s)",
				key, p.GFLOPS, 100*regressionTolerance, was, path)
		}
	}
	fmt.Printf("regression gate: %d serial points within %.0f%% of %s\n",
		compared, 100*regressionTolerance, path)
	return nil
}

func bestIndex(t *bench.AutotuneResult) int {
	for i, p := range t.Points {
		if p.Config == t.Best {
			return i
		}
	}
	return 0
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values in %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgemm:", err)
	os.Exit(1)
}
