package core

import (
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
)

// twinRun trains a fresh, identically seeded method for a few mini-batch
// steps and returns the digest of its weights.
func twinRun(t *testing.T, name string, o Options) string {
	t.Helper()
	x, y := separableTask(4200, 80, 12, 4)
	net, err := nn.NewNetwork(nn.Uniform(12, 32, 2, 4), rng.New(4201))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(name, net, opt.NewAdam(0.01), o)
	if err != nil {
		t.Fatal(err)
	}
	goldenRun(m, x, y, 20, 0, 12)
	return goldenDigest(t, net)
}

// Sequential ALSH at batch > 1 must be bit-deterministic: the batch
// union of the per-row lookups is emitted in ascending order, so the
// cap's shuffle, the padding and every summation over the active set
// see the same column order on every run. (The union used to come out
// of a map in iteration order.)
func TestSequentialALSHTwinRunsBitIdentical(t *testing.T) {
	o := DefaultOptions(4202)
	o.ALSH = ALSHConfig{Params: lshParamsForTest(), MinActive: 6, MaxActiveFrac: 0.5, EarlyRebuildEvery: 40}
	want := twinRun(t, "alsh", o)
	for run := 1; run < 4; run++ {
		if got := twinRun(t, "alsh", o); got != want {
			t.Fatalf("run %d: weights digest %s, first run %s", run, got, want)
		}
	}
}

// ParallelALSH with several workers must be bit-deterministic too: rows
// are assigned to workers statically, so the padding each row draws does
// not depend on which goroutine got to it first. MinActive well above
// what the lookups return forces padding draws on every row.
func TestParallelALSHTwinRunsBitIdentical(t *testing.T) {
	o := DefaultOptions(4203)
	o.ALSH = ALSHConfig{Params: lshParamsForTest(), MinActive: 24, EarlyRebuildEvery: 40}
	o.Workers = 2
	want := twinRun(t, "alsh-parallel", o)
	for run := 1; run < 6; run++ {
		if got := twinRun(t, "alsh-parallel", o); got != want {
			t.Fatalf("run %d: weights digest %s, first run %s", run, got, want)
		}
	}
}
