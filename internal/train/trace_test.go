package train

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"samplednn/internal/obs/trace"
	"samplednn/internal/pool"
)

// traceSchema reduces an exported trace to its span vocabulary: the
// sorted set of unique "cat/name" pairs plus the metadata event names.
// Timings, counts, and span multiplicity vary run to run and machine to
// machine; the vocabulary is the contract trace consumers (Perfetto
// queries, the bench overhead experiment) rely on.
func traceSchema(t *testing.T, doc tracedoc) string {
	t.Helper()
	set := map[string]struct{}{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			set["meta/"+e.Name] = struct{}{}
		case "X":
			set[e.Cat+"/"+e.Name] = struct{}{}
		default:
			t.Errorf("unexpected event phase %q in %+v", e.Ph, e)
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintln(&b, k)
	}
	return b.String()
}

// tracedoc mirrors the Chrome trace_event JSON object format, decoded
// independently of the trace package's own types so the test pins the
// wire format, not the Go structs.
type tracedoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceGoldenSchema runs a short sequential-ALSH training with the
// tracer, probe, and checkpointing all enabled, then pins (a) that the
// output is loadable Chrome trace_event JSON and (b) the span
// vocabulary against a golden file. Regenerate with
// TRACE_GOLDEN_UPDATE=1 go test ./internal/train -run TraceGoldenSchema.
func TestTraceGoldenSchema(t *testing.T) {
	// One pool worker: pool/task spans come from resident helper
	// goroutines, so their presence would depend on GOMAXPROCS.
	pool.SetDefaultWorkers(1)
	defer pool.SetDefaultWorkers(runtime.GOMAXPROCS(0))

	trc := trace.New(0)
	trace.SetActive(trc)
	defer trace.SetActive(nil)

	// Build the method with the tracer already active so the initial
	// lsh/rebuild (index construction) is part of the trace.
	ds := tinyDataset(t, 80)
	m := tinyMethod(t, "alsh", ds, 81)
	tr, err := New(m, ds, Config{
		Epochs: 1, BatchSize: 1, Seed: 82,
		StatePath:  filepath.Join(t.TempDir(), "state.snck"),
		ProbeEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	trace.SetActive(nil)

	if trc.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans; grow the capacity so the schema is complete", trc.Dropped())
	}

	var buf bytes.Buffer
	if _, err := trc.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc tracedoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace exported no events")
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.PID != 1 {
			t.Fatalf("malformed event %+v", e)
		}
		if e.Ph == "X" && (e.Cat == "" || e.Dur < 0 || e.TS < 0) {
			t.Fatalf("malformed complete event %+v", e)
		}
	}

	got := traceSchema(t, doc)
	goldenPath := filepath.Join("testdata", "trace_schema.golden")
	if os.Getenv("TRACE_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with TRACE_GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("trace span vocabulary drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRebuildPerEpochReachesEveryALSHVariant counts lsh/rebuild spans
// (one per index per full rebuild, emitted by the same call that bumps
// lsh's Stats counter): with RebuildPerEpoch every hidden layer's index
// must be rebuilt once at construction and once more after each epoch —
// for the parallel variant too, which the trainer used to skip because
// it looked for the sequential stepper's concrete type.
func TestRebuildPerEpochReachesEveryALSHVariant(t *testing.T) {
	const epochs, hidden = 3, 2
	for _, name := range []string{"alsh", "alsh-parallel"} {
		trc := trace.New(0)
		trace.SetActive(trc)
		ds := tinyDataset(t, 85)
		tr, err := New(tinyMethod(t, name, ds, 86), ds, Config{
			Epochs: epochs, BatchSize: 10, Seed: 87, RebuildPerEpoch: true,
		})
		if err == nil {
			_, err = tr.Run()
		}
		trace.SetActive(nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := trc.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var doc tracedoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		rebuilds := 0
		for _, e := range doc.TraceEvents {
			if e.Cat == "lsh" && e.Name == "rebuild" {
				rebuilds++
			}
		}
		if want := hidden * (1 + epochs); rebuilds != want {
			t.Errorf("%s: %d index rebuilds over %d epochs, want %d (construction + one per epoch, per hidden layer)",
				name, rebuilds, epochs, want)
		}
	}
}
