// Command benchdist runs the distributed data-parallel throughput sweep
// and writes the results to a JSON report (BENCH_distributed.json by
// default), the artifact the Makefile `bench-dist` target tracks.
//
// Usage:
//
//	benchdist -workers 1,2 -epochs 5 -out BENCH_distributed.json
//
// Both benchmark shapes (784-128³-10 at batch 8, 784-256³-10 at batch
// 60) are trained at every worker count with the same shard count, one
// warm-up epoch dropped and -epochs measured; a final-weight mismatch
// against the in-process reference fails the run. The coordinator spawns workers by re-executing this binary, so
// main hands off to the dist worker loop when the marker environment
// variable is set.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"samplednn/internal/atomicfile"
	"samplednn/internal/bench"
	"samplednn/internal/dist"
)

func main() {
	if dist.IsWorkerProcess() {
		os.Exit(dist.WorkerMain())
	}
	var (
		out     = flag.String("out", "BENCH_distributed.json", "output JSON path")
		workers = flag.String("workers", "1,2,4", "comma-separated worker process counts (0 = in-process reference, always run)")
		epochs  = flag.Int("epochs", 5, "measured epochs per point (one more is run first and dropped)")
	)
	flag.Parse()
	ws, err := parseInts(*workers)
	if err != nil {
		fatal(fmt.Errorf("-workers: %w", err))
	}
	if *epochs <= 0 {
		fatal(fmt.Errorf("-epochs must be positive"))
	}

	rep, err := bench.RunDistBench(ws, *epochs)
	if err != nil {
		fatal(err)
	}
	for _, p := range rep.Points {
		label := fmt.Sprintf("workers=%d", p.Workers)
		if p.Workers == 0 {
			label = "single-proc"
		}
		fmt.Printf("%-9s %-11s shards=%d  %4d steps in %6.2fs  %7.1f steps/s  speedup %.2fx  step %6.2f ms",
			p.Shape, label, p.Shards, p.Steps, p.Seconds, p.StepsPerSec, p.SpeedupVsSingle, p.ReduceMS)
		if s := p.StageMS; s != nil {
			fmt.Printf(" = encode %.2f + wire %.2f + fold %.2f + apply %.2f", s["encode"], s["wire"], s["fold"], s["apply"])
		}
		fmt.Println()
		if !p.BitIdentical {
			fatal(fmt.Errorf("%s workers=%d: final weights not byte-identical to the single-process reference", p.Shape, p.Workers))
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
	fmt.Fprintln(os.Stderr, "benchdist:", err)
	os.Exit(1)
}
