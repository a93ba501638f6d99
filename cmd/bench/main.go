// Command bench records the repo's three component ledgers, each a
// number the whole-system benchmark (benchmark/) does not report:
//
//	bench gemm   size × worker sweep of the packed GEMM kernels, every
//	             parallel product checked bit for bit against the serial
//	             one                                → BENCH_gemm.json
//	bench dist   worker-count sweep of a distributed step with the
//	             coordinator's encode / wire / fold / apply split, every
//	             point checked byte for byte against the in-process
//	             weights                            → BENCH_distributed.json
//	bench lint   load and analysis time of the repolint suite over this
//	             module                             → BENCH_lint.json
//
// Every artifact is {"env": …, "report": …}: one envelope saying where
// and how the numbers were measured, then the suite's own rows. It is
// written atomically and only when the suite's checks and, for gemm
// with -baseline, the regression gate pass.
//
// Usage:
//
//	bench <gemm|dist|lint> [-out file]
//	bench gemm -baseline BENCH_gemm.json
//
// -out names the artifact (default: the committed BENCH_*.json in the
// working directory); -baseline names an earlier gemm artifact the new
// serial rows may not fall more than 20 % below.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"samplednn/internal/atomicfile"
	"samplednn/internal/dist"
)

// envelope says where and how an artifact's numbers were measured; the
// build and host fields are the ones benchmark/ stamps on its run
// reports.
type envelope struct {
	Suite      string `json:"suite"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	// Revision is the working tree's commit, "-dirty" when it had
	// uncommitted changes.
	Revision string `json:"git_revision"`
	// Runs is the number of timed repetitions behind each reported
	// number (the fewest, where rows differ) and Spread the widest
	// sample standard deviation among the rows, relative to the row's
	// value.
	Runs   int     `json:"runs"`
	Spread float64 `json:"spread"`
}

// measured is what a suite hands back: its rows, and how often and how
// steadily they were timed.
type measured struct {
	report any
	runs   int
	spread float64
}

// ledger is one artifact file.
type ledger struct {
	Env    envelope `json:"env"`
	Report any      `json:"report"`
}

// suite is one ledger: what measures it, where it lands, and the gate
// (if any) a new recording must pass against an earlier one.
type suite struct {
	name, out, what string
	run             func(stdout io.Writer) (measured, error)
	gate            func(base []byte, fresh ledger) (string, error)
}

var suites = []suite{
	{name: "gemm", out: "BENCH_gemm.json", what: "packed GEMM kernels, size × worker sweep",
		run: func(w io.Writer) (measured, error) {
			return runGEMM(w, []int{128, 256, 512}, []int{1, 2, 4}, 100*time.Millisecond)
		},
		gate: gateGEMM},
	{name: "dist", out: "BENCH_distributed.json", what: "distributed step, worker-count sweep with stage split",
		run: func(w io.Writer) (measured, error) { return runDist(w, []int{1, 2}, 5) }},
	{name: "lint", out: "BENCH_lint.json", what: "repolint load and analysis time over this module",
		run: runLint},
}

func main() {
	// The dist suite's coordinator spawns its workers by re-executing
	// this binary.
	if dist.IsWorkerProcess() {
		os.Exit(dist.WorkerMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: 0 on success, 1 when a suite, its
// checks, the gate or the write fails, 2 on a command line it cannot
// read.
func run(args []string, stdout, stderr io.Writer) int {
	var s *suite
	for i := range suites {
		if len(args) > 0 && args[0] == suites[i].name {
			s = &suites[i]
		}
	}
	if s == nil {
		fmt.Fprintln(stderr, "usage: bench <suite> [-out file]   (gemm also: -baseline file)")
		for _, s := range suites {
			fmt.Fprintf(stderr, "  %-5s %s → %s\n", s.name, s.what, s.out)
		}
		return 2
	}
	fs := flag.NewFlagSet("bench "+s.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", s.out, "artifact to write")
	baseline := new(string)
	if s.gate != nil {
		baseline = fs.String("baseline", "", "earlier artifact to gate against; nothing is written unless the gate passes")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench %s: unexpected argument %q\n", s.name, fs.Arg(0))
		return 2
	}
	// The baseline is read first, so a wrong path fails before the sweep.
	var (
		base []byte
		m    measured
		err  error
	)
	if *baseline != "" {
		base, err = os.ReadFile(*baseline)
	}
	if err == nil {
		m, err = s.run(stdout)
	}
	if err == nil {
		err = record(stdout, *s, m, *out, base)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench %s: %v\n", s.name, err)
		return 1
	}
	return 0
}

// record stamps the envelope on a suite's rows, holds them to the
// suite's gate when there is a baseline artifact (base, the file's
// bytes), and writes the artifact.
func record(stdout io.Writer, s suite, m measured, out string, base []byte) error {
	l := ledger{Env: newEnvelope(s.name, m), Report: m.report}
	if base != nil {
		verdict, err := s.gate(base, l)
		if err != nil {
			return fmt.Errorf("regression gate: %w", err)
		}
		fmt.Fprintf(stdout, "regression gate: %s of the baseline\n", verdict)
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFileBytes(out, append(data, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d CPUs, GOAMD64=%s, %s, runs ≥ %d, spread ≤ %.1f%%)\n",
		out, l.Env.CPUs, l.Env.GOAMD64, l.Env.Revision, l.Env.Runs, 100*l.Env.Spread)
	return nil
}

func newEnvelope(suite string, m measured) envelope {
	e := envelope{
		Suite: suite, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64: "unknown", GoVersion: runtime.Version(), Revision: "unknown",
		Runs: m.runs, Spread: m.spread,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				e.GOAMD64 = s.Value
			}
		}
	}
	// `go run` stamps no VCS settings on the binary, but it has just
	// built it from the working tree, so git says what was measured.
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		e.Revision = strings.TrimSpace(string(out))
	}
	return e
}

// meanStddev is the mean and sample standard deviation of a row's
// repeated timings.
func meanStddev(samples []float64) (mean, sd float64) {
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	if len(samples) < 2 {
		return mean, 0
	}
	var ss float64
	for _, s := range samples {
		ss += (s - mean) * (s - mean)
	}
	return mean, math.Sqrt(ss / float64(len(samples)-1))
}
