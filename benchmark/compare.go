package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads the untraced run reports at path: one file, or every
// run-*.json of a directory. Smoke runs measure nothing and are skipped.
func loadRuns(path string) ([]report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []report
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		if rep.Env.Trace == 0 && !rep.Env.Smoke {
			out = append(out, rep)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run reports", path)
	}
	return out, nil
}

// side is one side's runs of one metric on one workload.
type side struct {
	values []float64
	failed int
}

func (s side) spread() float64 {
	q1, med, q3 := quartiles(s.values)
	return (q3 - q1) / med
}

func collect(reps []report) map[string]map[string]*side {
	out := map[string]map[string]*side{}
	for _, rep := range reps {
		byMetric := out[rep.Env.Workload]
		if byMetric == nil {
			byMetric = map[string]*side{}
			out[rep.Env.Workload] = byMetric
		}
		for _, m := range rep.Metrics {
			s := byMetric[m.Name]
			if s == nil {
				s = &side{}
				byMetric[m.Name] = s
			}
			s.values = append(s.values, m.Median)
			s.failed += rep.Failed
		}
	}
	return out
}

// compareRuns judges side b against side a with the bounds of the metric
// table and prints one row per end-to-end metric and workload:
//
//	better      b's median beats a's by more than the bound
//	within      the medians differ by no more than the bound
//	worse       b's median is worse than a's by more than the bound
//	unresolved  a side's own runs spread (q3-q1 over the median) wider
//	            than the bound, so the medians cannot be told apart
//
// It returns 1 when any row is worse or unresolved, or b failed
// operations that a did not.
func compareRuns(pathA, pathB string, stdout, stderr io.Writer) int {
	repsA, err := loadRuns(pathA)
	if err == nil {
		var repsB []report
		if repsB, err = loadRuns(pathB); err == nil {
			return judge(collect(repsA), collect(repsB), stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func judge(a, b map[string]map[string]*side, stdout io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-10s %-26s %5s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "spread", "median b", "spread", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			sa, sb := a[w.Name][d.Name], b[w.Name][d.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			// change is positive when b is worse.
			change := (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
			verdict := "within"
			switch {
			case sb.failed > sa.failed:
				verdict = "worse (failed operations)"
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
			case change < -d.Bound:
				verdict = "better"
			}
			if verdict != "within" && verdict != "better" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-10s %-26s %2d/%-2d %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.Name, d.Name, len(sa.values), len(sb.values), ma, 100*sa.spread(), mb, 100*sb.spread(), 100*change, 100*d.Bound, verdict)
		}
	}
	return status
}
