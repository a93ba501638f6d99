package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func suiteNamed(t *testing.T, name string) suite {
	t.Helper()
	for _, s := range suites {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no suite %q", name)
	return suite{}
}

// serialRows is a gemm recording with one serial row of the kernel per
// GFLOPS value, at sizes 128, 256, ….
func serialRows(kernel string, gflops ...float64) measured {
	rep := &gemmReport{}
	for i, g := range gflops {
		rep.Points = append(rep.Points, gemmPoint{
			Kernel: kernel, Size: 128 << i, Workers: 1, GFLOPS: g, NsPerOp: 1, Runs: 3, BitIdentical: true,
		})
	}
	return measured{report: rep, runs: 3, spread: 0.01}
}

// TestRegressionGate holds the gate to its three verdicts: a serial row
// that lost more than 20 % fails and leaves no artifact, rows within
// tolerance pass and are written, and a baseline with no row in common
// (a renamed kernel, another sweep, a pre-envelope file) fails instead
// of passing "0 rows within 80 %".
func TestRegressionGate(t *testing.T) {
	gemm := suiteNamed(t, "gemm")
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	if err := record(io.Discard, gemm, serialRows("matmul", 10, 8), basePath, nil); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		fresh   measured
		base    []byte
		wantErr string
	}{
		{name: "within tolerance", fresh: serialRows("matmul", 8.1, 12), base: base},
		{name: "lost more than 20 percent", fresh: serialRows("matmul", 10, 6.3), base: base, wantErr: "matmul@256 fell to 6.30"},
		{name: "renamed kernel", fresh: serialRows("gemm", 10, 8), base: base, wantErr: "nothing was compared"},
		{name: "pre-envelope baseline", fresh: serialRows("matmul", 10, 8),
			base: []byte(`{"host":{"cpus":1},"points":[{"kernel":"matmul","size":128,"workers":1,"gflops":10}]}`), wantErr: "nothing was compared"},
		{name: "not json", fresh: serialRows("matmul", 10, 8), base: []byte("BENCH"), wantErr: "invalid character"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			err := record(io.Discard, gemm, tc.fresh, out, tc.base)
			_, statErr := os.Stat(out)
			if tc.wantErr == "" {
				if err != nil || statErr != nil {
					t.Fatalf("gate: %v, artifact: %v; want a pass and a file", err, statErr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("gate error %v, want one containing %q", err, tc.wantErr)
			}
			if !os.IsNotExist(statErr) {
				t.Fatalf("a failed gate left an artifact behind (stat: %v)", statErr)
			}
			if tc.wantErr == "nothing was compared" && !strings.Contains(err.Error(), "this run: {Suite:gemm") {
				t.Fatalf("a gate that compared nothing must print both envelopes: %v", err)
			}
		})
	}
}

// TestCommandLine: what run cannot read is answered with usage on
// stderr and exit 2, before anything is measured; a failure is exit 1.
func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		code       int
		wantStderr string
	}{
		{args: nil, code: 2, wantStderr: "usage: bench <suite>"},
		{args: []string{"serve"}, code: 2, wantStderr: "usage: bench <suite>"},
		{args: []string{"gemm", "-autotune"}, code: 2, wantStderr: "flag provided but not defined"},
		{args: []string{"lint", "-baseline", "x.json"}, code: 2, wantStderr: "flag provided but not defined"},
		{args: []string{"dist", "extra"}, code: 2, wantStderr: "unexpected argument"},
		{args: []string{"gemm", "-baseline", filepath.Join(t.TempDir(), "absent.json")}, code: 1, wantStderr: "bench gemm: open "},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("bench %v: exit %d, want %d", tc.args, code, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("bench %v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.wantStderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("bench %v measured something: %q", tc.args, stdout.String())
		}
	}
	for _, s := range suites {
		var stderr bytes.Buffer
		run(nil, io.Discard, &stderr)
		if !strings.Contains(stderr.String(), s.name) || !strings.Contains(stderr.String(), s.out) {
			t.Errorf("usage does not list suite %s → %s:\n%s", s.name, s.out, stderr.String())
		}
	}
}

// TestEnvelopeOnEverySuite runs each suite's report type through the
// shared writer: every envelope field present and non-zero, the rows
// under "report", and a file that ends in a newline.
func TestEnvelopeOnEverySuite(t *testing.T) {
	reports := map[string]any{
		"gemm": &gemmReport{Sizes: []int{64}, Points: []gemmPoint{{Kernel: "matmul", Size: 64, Workers: 1}}},
		"dist": &distReport{Epochs: 5, Shards: 2, Points: []distPoint{{Shape: "s1_w128", Workers: 2}}},
		"lint": &lintReport{Packages: 41, Points: []lintPoint{{Iter: 1}}},
	}
	if len(reports) != len(suites) {
		t.Fatalf("%d suites, %d report types in this table", len(suites), len(reports))
	}
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), s.out)
			if err := record(io.Discard, s, measured{report: reports[s.name], runs: 3, spread: 0.02}, out, nil); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(data, []byte("}\n")) {
				t.Errorf("artifact does not end in a newline: %q", data[max(0, len(data)-20):])
			}
			var got struct {
				Env    map[string]any `json:"env"`
				Report map[string]any `json:"report"`
			}
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			for _, field := range []string{"suite", "cpus", "gomaxprocs", "goamd64", "go_version", "git_revision", "runs", "spread"} {
				switch v := got.Env[field].(type) {
				case string:
					if v == "" {
						t.Errorf("env.%s is empty", field)
					}
				case float64:
					if v == 0 {
						t.Errorf("env.%s is zero", field)
					}
				default:
					t.Errorf("env.%s = %v, want a string or a number", field, v)
				}
			}
			if len(got.Env) != 8 {
				t.Errorf("envelope has %d fields, this test knows 8: %v", len(got.Env), got.Env)
			}
			if got.Env["suite"] != s.name {
				t.Errorf("env.suite = %v, want %s", got.Env["suite"], s.name)
			}
			if pts, _ := got.Report["points"].([]any); len(pts) != 1 {
				t.Errorf("report.points = %v, want the one row written", got.Report["points"])
			}
		})
	}
}

// TestGEMMSuiteSmallSweep runs the gemm suite itself at n=64 (the
// packed-path threshold) on a millisecond budget: every kernel at 1 and
// 2 workers, each parallel product bit-identical, a sane envelope, and
// an artifact that reads back as the report that was written and passes
// the gate against itself.
func TestGEMMSuiteSmallSweep(t *testing.T) {
	var lines bytes.Buffer
	m, err := runGEMM(&lines, []int{64}, []int{1, 2}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.report.(*gemmReport)
	kernels := len(gemmKernels())
	if len(rep.Points) != 2*kernels || strings.Count(lines.String(), "\n") != 2*kernels {
		t.Fatalf("%d points, %d lines, want %d of each", len(rep.Points), strings.Count(lines.String(), "\n"), 2*kernels)
	}
	for _, p := range rep.Points {
		if !p.BitIdentical || p.NsPerOp <= 0 || p.GFLOPS <= 0 || p.Runs < 3 || p.SpeedupVsSerial <= 0 {
			t.Errorf("bad point %+v", p)
		}
	}
	if m.runs < 3 || m.spread <= 0 {
		t.Errorf("runs %d, spread %v: want at least three runs and a measured spread", m.runs, m.spread)
	}
	if cfg := rep.BlockConfig; cfg.MC <= 0 || cfg.KC <= 0 || cfg.NC <= 0 {
		t.Errorf("block config %+v not recorded", cfg)
	}

	gemm := suiteNamed(t, "gemm")
	out := filepath.Join(t.TempDir(), "gemm.json")
	if err := record(io.Discard, gemm, m, out, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Report gemmReport `json:"report"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, _ := json.Marshal(back.Report)
	first, _ := json.Marshal(rep)
	if !bytes.Equal(again, first) {
		t.Errorf("report did not survive the round trip:\nwrote %s\nread  %s", first, again)
	}
	var verdict bytes.Buffer
	if err := record(&verdict, gemm, m, out, data); err != nil {
		t.Fatalf("a recording failed the gate against itself: %v", err)
	}
	if !strings.Contains(verdict.String(), fmt.Sprintf("%d serial rows within 80%%", kernels)) {
		t.Errorf("gate verdict %q", verdict.String())
	}
}
