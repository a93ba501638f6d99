package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"samplednn/internal/lint"
)

// The lint suite times the static-analysis suite over this module in
// two phases that scale differently: the loader (parse + wave-parallel
// type-checking over internal/pool; package and CPU count) and the
// analysis (call graph, fact fixpoint, every check; function and
// call-site count). Each iteration builds a fresh loader so the package
// cache never amortizes the work being measured.

const lintIters = 3

type lintPoint struct {
	Iter            int     `json:"iter"`
	LoadSeconds     float64 `json:"load_seconds"`
	AnalysisSeconds float64 `json:"analysis_seconds"`
	TotalSeconds    float64 `json:"total_seconds"`
}

// lintReport is the BENCH_lint.json payload.
type lintReport struct {
	Packages    int         `json:"packages"`
	Functions   int         `json:"functions"`
	Diagnostics int         `json:"diagnostics"`
	Suppressed  int         `json:"suppressed"`
	Points      []lintPoint `json:"points"`
	Best        lintPoint   `json:"best"`
}

// runLint is the lint suite, over the module the working directory is
// in.
func runLint(stdout io.Writer) (measured, error) {
	wd, err := os.Getwd()
	if err != nil {
		return measured{}, err
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		return measured{}, err
	}
	rep := &lintReport{}
	var totals []float64
	for i := 1; i <= lintIters; i++ {
		loader, err := lint.NewLoader(root)
		if err != nil {
			return measured{}, err
		}
		t0 := time.Now()
		pkgs, err := loader.LoadModule()
		if err != nil {
			return measured{}, err
		}
		t1 := time.Now()
		prog := lint.NewProgram(pkgs)
		res := lint.RunProgram(root, prog, lint.Checks())
		t2 := time.Now()

		p := lintPoint{
			Iter:            i,
			LoadSeconds:     t1.Sub(t0).Seconds(),
			AnalysisSeconds: t2.Sub(t1).Seconds(),
			TotalSeconds:    t2.Sub(t0).Seconds(),
		}
		rep.Points = append(rep.Points, p)
		totals = append(totals, p.TotalSeconds)
		if i == 1 || p.TotalSeconds < rep.Best.TotalSeconds {
			rep.Best = p
		}
		rep.Packages = len(pkgs)
		rep.Functions = prog.NumFunctions()
		rep.Diagnostics = len(res.Diagnostics)
		rep.Suppressed = len(res.Suppressed)
		fmt.Fprintf(stdout, "iter %d: load %6.2fs  analysis %6.2fs  total %6.2fs  (%d pkgs, %d fns, %d diags, %d suppressed)\n",
			i, p.LoadSeconds, p.AnalysisSeconds, p.TotalSeconds,
			rep.Packages, rep.Functions, rep.Diagnostics, rep.Suppressed)
	}
	mean, sd := meanStddev(totals)
	return measured{report: rep, runs: lintIters, spread: sd / mean}, nil
}
