package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"samplednn/internal/dist"
)

// TestMain is the worker re-exec hook: the dist stage spawns its workers
// by re-running this test binary, and those processes must serve the
// worker protocol instead of running tests.
func TestMain(m *testing.M) {
	if dist.IsWorkerProcess() {
		os.Exit(dist.WorkerMain())
	}
	os.Exit(m.Run())
}

// spec renders the metric and workload tables the way BENCHMARK.json
// holds them.
func spec(t *testing.T) []byte {
	t.Helper()
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.Name, w.Why})
	}
	data, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// program emits from. On a mismatch it prints what the file should hold.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := spec(t)
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; it should hold:\n%s", want)
	}
	if len(endToEnd) != 15 || len(perLayer) != 74 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 15 and 74", len(endToEnd), len(perLayer))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and traced at -smoke size and
// checks that each run reports exactly the metrics BENCHMARK.json names
// for it, each once, none NaN, with no failed operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			out := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", string(rune('0' + trace)), "-smoke", "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%v: metric %s missing", args, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%v: metric %s has unit %q, want %q", args, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%v: metric %s is %v", args, d.Name, m.Value)
				}
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
				}
				// The table prints each metric on its own row, once.
				if n := strings.Count(stdout.String(), "\n"+d.Name+" "); n != 1 {
					t.Errorf("%v: metric %s printed %d times", args, d.Name, n)
				}
			}
			reports, err := filepath.Glob(filepath.Join(out, "run-*.json"))
			if err != nil || len(reports) != 1 {
				t.Errorf("%v: %d run reports (%v), want 1", args, len(reports), err)
			}
			if left, _ := filepath.Glob(filepath.Join(out, "fixture-*")); len(left) != 0 {
				t.Errorf("%v: scratch files left behind: %v", args, left)
			}
			if trace == 1 {
				checkTrace(t, filepath.Join(out, "trace-"+w.Name+".json"))
			}
		}
	}
}

// checkTrace checks the span tree of a traced run: every span closed
// inside its parent, ids unique, and the hierarchy the README describes.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Env   envelope `json:"env"`
		Spans []span   `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Env.NProc < 1 || doc.Env.GoVersion == "" {
		t.Errorf("%s: envelope not filled: %+v", path, doc.Env)
	}
	byID := map[int64]span{}
	for _, s := range doc.Spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("%s: span id %d repeated or zero", path, s.ID)
		}
		byID[s.ID] = s
	}
	parentOf := map[string]string{
		"core.step": "epoch", "dist.step": "epoch", "request": "phase.",
		"epoch": "-run.", "method-run.": "workload.", "dist-run.": "workload.", "phase.": "workload.",
	}
	seen := map[string]int{}
	for _, s := range doc.Spans {
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) never closed", path, s.ID, s.Name)
		}
		for prefix, want := range parentOf {
			if !strings.HasPrefix(s.Name, prefix) {
				continue
			}
			seen[prefix]++
			p, ok := byID[s.Parent]
			if !ok || !strings.Contains(p.Name, want) {
				t.Errorf("%s: span %s has parent %q, want one containing %q", path, s.Name, p.Name, want)
				continue
			}
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Trace != p.Trace {
				t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
			}
		}
	}
	for prefix := range parentOf {
		if seen[prefix] == 0 {
			t.Errorf("%s: no %s span", path, prefix)
		}
	}
}

// TestCompareVerdicts feeds -compare synthetic run sets and checks each
// verdict.
func TestCompareVerdicts(t *testing.T) {
	runs := func(epoch ...float64) map[string]map[string]*side {
		return map[string]map[string]*side{"mb20_w256": {"epoch_s.standard": {values: epoch}}}
	}
	base := runs(1.00, 1.01, 0.99, 1.00)
	for _, tc := range []struct {
		b      map[string]map[string]*side
		want   string
		status int
	}{
		{runs(1.02, 1.01, 1.03), " within", 0},
		{runs(0.80, 0.81, 0.79), " better", 0},
		{runs(1.20, 1.21, 1.19), " worse", 1},
		{runs(0.70, 1.00, 1.30, 1.60), " unresolved", 1},
	} {
		var out bytes.Buffer
		if status := judge(base, tc.b, &out); status != tc.status || !strings.Contains(out.String(), tc.want) {
			t.Errorf("want%s and status %d, got status %d:\n%s", tc.want, tc.status, status, out.String())
		}
	}
}
