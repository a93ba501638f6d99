// Command benchmark is the repo's one performance benchmark: it drives
// the whole system from outside — the five training methods through
// train.Trainer, a checkpoint served over loopback HTTP, data-parallel
// training over worker processes — checks every output, and prints each
// metric of BENCHMARK.json by name. See README.md in this directory.
//
//	GOAMD64=v3 go run ./benchmark -workload mb20_w256 -seed 1 -seconds 55 -trace 0
//	go run ./benchmark -compare dirA dirB
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"samplednn/internal/atomicfile"
	"samplednn/internal/dist"
	"samplednn/internal/obs"
)

func main() {
	// The dist stage spawns its workers by re-executing this binary.
	if dist.IsWorkerProcess() {
		os.Exit(dist.WorkerMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// envelope says where and how a run's numbers were measured.
type envelope struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Smoke      bool    `json:"smoke,omitempty"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOAMD64    string  `json:"goamd64"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"git_revision"`
	Conns      int     `json:"load_connections"`
}

// report is what a run writes to <out>/run-*.json and what -compare
// reads back.
type report struct {
	Env       envelope  `json:"env"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   []*series `json:"metrics"`
}

func newEnvelope(w workload, seed uint64, seconds float64, trace int, smoke bool) envelope {
	e := envelope{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64: "unknown", GoVersion: runtime.Version(), Revision: "unknown", Conns: maxConns(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				e.GOAMD64 = s.Value
			case "vcs.revision":
				e.Revision = s.Value
			}
		}
	}
	return e
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", runSeconds, "how long the run measures")
		trace   = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics at half length")
		out     = fs.String("out", filepath.Join(".bench_build", "out"), "directory for run reports, traces and scratch files")
		smoke   = fs.Bool("smoke", false, "tiny sizes: checks the plumbing, measures nothing")
		compare = fs.Bool("compare", false, "compare the run reports of two files or directories given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two files or directories of run reports")
			return 2
		}
		return compareRuns(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	if *smoke {
		w.Width, w.TrainN, w.EvalN, w.DistN, w.AccFloor = 32, 40, 20, 2*w.DistBatch, nil
	}
	rep, err := runWorkload(w, *seed, *seconds, *trace, *smoke, *out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printTable(stdout, rep.Metrics)
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	if len(rep.Failures) > 0 {
		fmt.Fprintf(stdout, "failures:\n  %s\n", joinLines(rep.Failures, 20))
	}
	// The result line: last on standard output, one JSON object.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range rep.Metrics {
		metrics[s.Name] = value{s.Median, s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// Shares of -seconds each stage measures for. A traced run halves them
// and spends the rest on the probes.
const (
	// runSeconds is BENCHMARK.json's run_seconds: with two workloads the
	// driver's 48 runs and two builds fit its time cap with a sixth to
	// spare.
	runSeconds = 55
	trainShare = 0.40
	serveShare = 0.33
	distShare  = 0.27
	setups     = 5
)

// runWorkload sets up, runs the three stages (and, traced, the probes),
// and writes the report and the trace under out.
func runWorkload(w workload, seed uint64, seconds float64, trace int, smoke bool, out string) (*report, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "fixture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up is everything before the first timed operation. It runs
	// several times so that setup_s is a median; the last one is used.
	r := newResults()
	var f *fixture
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if f, err = setup(w, seed, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.add("setup_s", time.Since(start).Seconds())
	}
	defer f.close()

	env := newEnvelope(w, seed, seconds, trace, smoke)
	var rec *recorder
	wanted := endToEnd
	if trace == 1 {
		rec = newRecorder()
		wanted = perLayer
		seconds /= 2
	}
	budget := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	submitted0, inline0 := poolTasks()
	root := rec.begin("workload."+w.Name, handle{})
	trainStage(f, r, rec, root, budget(trainShare))
	loopbackP50us := serveStage(f, r, rec, root, budget(serveShare), smoke)
	distStage(f, r, rec, root, budget(distShare))
	rec.end(root)
	if rec != nil {
		submitted, inline := poolTasks()
		r.add("pool.inline_share", float64(inline-inline0)/math.Max(1, float64(inline-inline0+submitted-submitted0)))
		if r.failed == 0 {
			if err := probes(f, r, loopbackP50us, smoke); err != nil {
				r.op(fmt.Errorf("probes: %w", err))
			}
			r.add("bench.trace_overhead_pct", slices.Max(r.overhead))
		}
		if err := rec.write(filepath.Join(out, "trace-"+w.Name+".json"), env); err != nil {
			return nil, err
		}
	}

	rep := &report{Env: env, Attempted: r.attempted, Failed: r.failed, Failures: r.failures}
	for _, d := range wanted {
		s, ok := r.get(d.Name)
		if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			rep.Failures = append(rep.Failures, "metric "+d.Name+" was not measured")
			continue
		}
		rep.Metrics = append(rep.Metrics, s)
	}
	rep.Correct = rep.Failed == 0 && len(rep.Metrics) == len(wanted) && rep.Attempted > 0
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	file := fmt.Sprintf("run-%s-trace%d-seed%d-%d.json", w.Name, trace, seed, time.Now().UnixNano())
	if err := atomicfile.WriteFileBytes(filepath.Join(out, file), append(data, '\n')); err != nil {
		return nil, err
	}
	return rep, nil
}

// poolTasks reads the kernel pool's submission counters from the
// process-wide registry.
func poolTasks() (submitted, inline int64) {
	c := obs.Default.Snapshot().Counters
	return c["pool.tasks.submitted"], c["pool.tasks.inline"]
}
