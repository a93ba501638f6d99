package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// The golden digests pin every method's trained weights bit for bit:
// SHA-256 of the nn.Save bytes after a fixed number of steps, and after
// a save → load → continue round trip. The file was recorded before the
// steppers were collapsed onto the shared loop, so a passing run proves
// the loop reproduces each former stepper's arithmetic and RNG draw
// order exactly. The test goes through core.New and locally declared
// interfaces only, so it compiles against either design. Regenerate
// (only when a PR states why weights may change) with
// CORE_GOLDEN_UPDATE=1 go test ./internal/core -run TestGoldenWeightDigests.

// goldenStater is the checkpoint surface of a method with run-time state.
type goldenStater interface {
	SaveState(io.Writer) error
	LoadState(io.Reader) error
}

type goldenCase struct {
	method string
	batch  int
}

// goldenCases lists what the file covers. Sequential ALSH at batch 20 is
// absent on purpose: before the shared active-set builder its batch
// union was emitted in map order, so there is no parent value to pin
// (TestSequentialALSHTwinRunsBitIdentical covers it instead).
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, name := range append(MethodNames(), "alsh-parallel") {
		cs = append(cs, goldenCase{name, 1})
		if name != "alsh" {
			cs = append(cs, goldenCase{name, 20})
		}
	}
	return cs
}

const (
	goldenSteps       = 24 // steps of the straight run
	goldenResumeAfter = 10 // steps before the save → load → continue cut
)

// goldenBuild constructs a method the same way every time: resume
// determinism depends on reconstruction hitting the same RNG draws.
func goldenBuild(t *testing.T, name string) (Method, opt.Optimizer) {
	t.Helper()
	net, err := nn.NewNetwork(nn.Uniform(12, 32, 2, 4), rng.New(4101))
	if err != nil {
		t.Fatal(err)
	}
	var optim opt.Optimizer = opt.NewSGD(0.05)
	if strings.HasPrefix(name, "alsh") {
		optim = opt.NewAdam(0.01) // the paper's ALSH pairing; pins StepCols on a stateful optimizer
	}
	o := DefaultOptions(4102)
	o.DropoutKeep = 0.5
	o.MC = MCConfig{K: 4, Where: MCBackward}
	o.ALSH = ALSHConfig{
		Params:            lshParamsForTest(),
		MinActive:         6,    // small enough that lookups decide most sets, large enough that padding draws occur
		MaxActiveFrac:     0.5,  // exercises the shuffle-and-truncate path
		EarlyRebuildEvery: 7,    // several incremental re-hashes inside the run
		EarlyPhaseSamples: 1000, // keep the early cadence throughout
	}
	o.Workers = 1
	m, err := New(name, net, optim, o)
	if err != nil {
		t.Fatal(err)
	}
	return m, optim
}

// goldenBatch copies the step's rows (cycling through the task) into a
// fresh batch.
func goldenBatch(x *tensor.Matrix, y []int, step, batch int) (*tensor.Matrix, []int) {
	bx := tensor.New(batch, x.Cols)
	by := make([]int, batch)
	for i := 0; i < batch; i++ {
		j := (step*batch + i) % x.Rows
		copy(bx.RowView(i), x.RowView(j))
		by[i] = y[j]
	}
	return bx, by
}

func goldenDigest(t *testing.T, net *nn.Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenRun trains steps [from, to) of the fixed schedule.
func goldenRun(m Method, x *tensor.Matrix, y []int, batch, from, to int) {
	for s := from; s < to; s++ {
		bx, by := goldenBatch(x, y, s, batch)
		m.Step(bx, by)
	}
}

// goldenResume trains to the cut, moves the complete state (weights,
// optimizer accumulators, method run-time state) into a freshly built
// method the way the trainer's restore does, and finishes the schedule
// there.
func goldenResume(t *testing.T, c goldenCase, x *tensor.Matrix, y []int) string {
	t.Helper()
	m1, o1 := goldenBuild(t, c.method)
	goldenRun(m1, x, y, c.batch, 0, goldenResumeAfter)

	var netBlob, optBlob, methodBlob bytes.Buffer
	if err := m1.Net().Save(&netBlob); err != nil {
		t.Fatal(err)
	}
	if err := o1.(opt.StateSaver).SaveState(&optBlob); err != nil {
		t.Fatal(err)
	}
	if s, ok := m1.(goldenStater); ok {
		if err := s.SaveState(&methodBlob); err != nil {
			t.Fatal(err)
		}
	}

	m2, o2 := goldenBuild(t, c.method)
	loaded, err := nn.Load(&netBlob)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range loaded.Layers {
		copy(m2.Net().Layers[i].W.Data, l.W.Data)
		copy(m2.Net().Layers[i].B, l.B)
	}
	if err := o2.(opt.StateSaver).LoadState(&optBlob); err != nil {
		t.Fatal(err)
	}
	if s, ok := m2.(goldenStater); ok {
		if err := s.LoadState(&methodBlob); err != nil {
			t.Fatal(err)
		}
	}
	goldenRun(m2, x, y, c.batch, goldenResumeAfter, goldenSteps)
	return goldenDigest(t, m2.Net())
}

func TestGoldenWeightDigests(t *testing.T) {
	x, y := separableTask(4100, 80, 12, 4)
	got := map[string]string{}
	for _, c := range goldenCases() {
		m, _ := goldenBuild(t, c.method)
		goldenRun(m, x, y, c.batch, 0, goldenSteps)
		got[fmt.Sprintf("%s/b%d/straight", c.method, c.batch)] = goldenDigest(t, m.Net())
		got[fmt.Sprintf("%s/b%d/resumed", c.method, c.batch)] = goldenResume(t, c, x, y)
	}

	path := filepath.Join("testdata", "weights.golden")
	if os.Getenv("CORE_GOLDEN_UPDATE") == "1" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with CORE_GOLDEN_UPDATE=1): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: weights digest %s, golden %s", k, v, want[k])
		}
	}
}
