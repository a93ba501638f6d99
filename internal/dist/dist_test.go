package dist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

// TestMain is the worker re-exec hook: the coordinator spawns workers
// by re-running this test binary with the dist environment set, and
// those processes must serve the worker protocol instead of running
// tests.
func TestMain(m *testing.M) {
	if IsWorkerProcess() {
		os.Exit(WorkerMain())
	}
	os.Exit(m.Run())
}

// buildRun constructs a small deterministic training setup. Every call
// with the same seed builds bit-identical datasets and networks.
func buildRun(t *testing.T) (*core.Standard, *dataset.Dataset, dataset.Options) {
	t.Helper()
	spec := dataset.Spec{
		Name: "dist-tiny", Width: 6, Height: 6, Channels: 1,
		Classes: 3, Train: 90, Test: 30, Val: 15, Difficulty: 0.6,
	}
	dopts := dataset.Options{Seed: 42}
	ds := dataset.GenerateFromSpec(spec, dopts)
	net, err := nn.NewNetwork(nn.Uniform(spec.Dim(), 16, 2, spec.Classes), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	optim, err := opt.ByName("momentum", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewStandard(net, optim), ds, dopts
}

// trainWith runs epochs of training through a coordinator configured by
// opts and returns the final weights (nn.Save bytes) and the per-epoch
// losses.
func trainWith(t *testing.T, epochs int, opts Options) ([]byte, []float64) {
	t.Helper()
	m, ds, dopts := buildRun(t)
	opts.Data = dopts
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	co, err := NewCoordinator(m, ds, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	tr, err := train.New(m, ds, train.Config{
		Epochs: epochs, BatchSize: 10, Seed: 7,
		Stepper: co, Registry: opts.Registry, Journal: opts.Journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Net().Save(&buf); err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, len(hist.Epochs))
	for i, e := range hist.Epochs {
		losses[i] = e.TrainLoss
	}
	return buf.Bytes(), losses
}

// trainPlain runs the same schedule with no stepper at all — the
// pre-dist trainer path — for the shards=1 degeneracy check.
func trainPlain(t *testing.T, epochs int) []byte {
	t.Helper()
	m, ds, _ := buildRun(t)
	tr, err := train.New(m, ds, train.Config{
		Epochs: epochs, BatchSize: 10, Seed: 7, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Net().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// enc renders a message's payload the way wireFrame.set does, minus the
// reserved header.
func enc(m message) []byte { return m.appendTo(nil) }

func TestProtocolRoundTrips(t *testing.T) {
	g := rng.New(5)
	grads := []nn.Grads{
		{W: randMatrix(g, 4, 3), B: randSlice(g, 3)},
		{W: randMatrix(g, 3, 2), B: randSlice(g, 2)},
	}

	h := hello{Rank: 3, PID: 4242}
	h2, err := decodeHello(enc(&h))
	if err != nil || *h2 != h {
		t.Fatalf("hello round trip: %+v, %v", h2, err)
	}

	w := welcome{
		Rank: 1,
		Spec: dataset.Spec{Name: "x", Width: 6, Height: 5, Channels: 2, Classes: 4,
			Train: 100, Test: 20, Val: 10, Difficulty: 0.7},
		DataSeed: 99, MaxTrain: 50, BatchSize: 10, Shards: 4,
		Method: "standard", Optimizer: "adam", LR: 0.01,
		Run: 0xfeedface12345678, SnapEvery: 5,
	}
	w2, err := decodeWelcome(enc(&w))
	if err != nil || *w2 != w {
		t.Fatalf("welcome round trip: %+v, %v", w2, err)
	}

	s := syncMsg{Epoch: 2, Step: 5, Blob: []byte{1, 2, 3}}
	s2, err := decodeSync(enc(&s))
	if err != nil || s2.Epoch != 2 || s2.Step != 5 || !bytes.Equal(s2.Blob, s.Blob) {
		t.Fatalf("sync round trip: %+v, %v", s2, err)
	}

	a := posAck{Epoch: 1, Step: 2, WeightCRC: 0xdeadbeef, Snap: []byte(`{"counters":{"x":1}}`)}
	a2, err := decodePosAck(enc(&a))
	if err != nil || a2.Epoch != a.Epoch || a2.Step != a.Step || a2.WeightCRC != a.WeightCRC || !bytes.Equal(a2.Snap, a.Snap) {
		t.Fatalf("ack round trip: %+v, %v", a2, err)
	}
	aEmpty := posAck{Epoch: 1, Step: 2, WeightCRC: 7}
	aEmpty2, err := decodePosAck(enc(&aEmpty))
	if err != nil || len(aEmpty2.Snap) != 0 {
		t.Fatalf("snapless ack round trip: %+v, %v", aEmpty2, err)
	}

	req := gradRequest{Epoch: 1, Step: 2, ShardLo: 3, ShardHi: 7}
	req2, err := decodeGradRequest(enc(&req))
	if err != nil || *req2 != req {
		t.Fatalf("grad request round trip: %+v, %v", req2, err)
	}

	gr := gradReply{Epoch: 3, Step: 1, Shards: []shardGrad{
		{Index: 0, Rows: 5, Loss: 1.5, Grads: grads},
	}}
	// The coordinator never materializes a grad reply (it folds the
	// payload, see TestFoldReplyMatchesDecodeThenAdd); the reference
	// decoder proves the encoder writes what the protocol says.
	gr2, err := refDecodeGradReply(enc(&gr))
	if err != nil {
		t.Fatalf("grad reply decode: %v", err)
	}
	if gr2.Epoch != 3 || gr2.Step != 1 || len(gr2.Shards) != 1 || !sameGrads(gr2.Shards[0].Grads, grads) {
		t.Fatalf("grad reply round trip: %+v", gr2)
	}

	cm := commit{Epoch: 4, Step: 0, Loss: 0.25, Grads: grads}
	cm2, gradBytes, err := decodeCommit(enc(&cm))
	into := []nn.Grads{{W: tensor.New(4, 3), B: make([]float64, 3)}, {W: tensor.New(3, 2), B: make([]float64, 2)}}
	if err == nil {
		err = decodeGrads(gradBytes, into)
	}
	if err != nil || cm2.Epoch != 4 || cm2.Step != 0 || cm2.Loss != 0.25 || !sameGrads(into, grads) {
		t.Fatalf("commit round trip: %+v, %v", cm2, err)
	}

	e := errMsg{Epoch: 9, Step: 8, Code: errDesync, Text: "position drift"}
	e2, err := decodeErrMsg(enc(&e))
	if err != nil || *e2 != e {
		t.Fatalf("error round trip: %+v, %v", e2, err)
	}

	// Every reply payload must lead with (epoch, step) for peekPos.
	for _, p := range [][]byte{enc(&a), enc(&gr), enc(&e)} {
		epoch, step, err := peekPos(p)
		if err != nil || epoch == 0 && step == 0 {
			t.Fatalf("peekPos failed on reply payload: %d/%d %v", epoch, step, err)
		}
	}
	if _, _, err := peekPos(enc(&a)[:7]); err == nil {
		t.Fatal("peekPos accepted a 7-byte payload")
	}
}

func TestShardMathTilesBatches(t *testing.T) {
	for _, rows := range []int{1, 7, 10, 33} {
		for shards := 1; shards <= 8; shards++ {
			covered := 0
			prevHi := 0
			for s := 0; s < shards; s++ {
				lo, hi := shardRange(rows, shards, s)
				if lo != prevHi {
					t.Fatalf("rows=%d shards=%d: shard %d starts at %d, want %d", rows, shards, s, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != rows || prevHi != rows {
				t.Fatalf("rows=%d shards=%d: covered %d rows", rows, shards, covered)
			}
			for w := 1; w <= 4; w++ {
				total := 0
				for r := 0; r < w; r++ {
					lo, hi := workerShards(shards, w, r)
					total += hi - lo
				}
				if total != shards {
					t.Fatalf("shards=%d workers=%d: assigned %d", shards, w, total)
				}
			}
		}
	}
}

func TestReducerEnforcesOrderAndTiling(t *testing.T) {
	g := rng.New(11)
	grads := []nn.Grads{{W: randMatrix(g, 2, 2), B: randSlice(g, 2)}}
	net, err := nn.NewNetwork(nn.Uniform(2, 2, 0, 2), g)
	if err != nil {
		t.Fatal(err)
	}
	r := newReducer(net)
	r.Add(1, 5, 10, 1.0, grads)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order Add did not panic")
			}
		}()
		r.Add(0, 5, 10, 1.0, grads)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("incomplete tiling did not panic")
			}
		}()
		r.Result(10)
	}()
}

// TestSingleShardMatchesPlainStep pins the degeneracy contract: a
// workers=0 shards=1 coordinator is byte-identical to the plain
// trainer with no stepper at all.
func TestSingleShardMatchesPlainStep(t *testing.T) {
	sharded, _ := trainWith(t, 2, Options{Workers: 0, Shards: 1})
	plain := trainPlain(t, 2)
	if !bytes.Equal(sharded, plain) {
		t.Fatal("shards=1 local coordinator diverged from the plain trainer")
	}
}

// TestLocalShardingIsDeterministic pins that the workers=0 sharded
// reference is reproducible run to run.
func TestLocalShardingIsDeterministic(t *testing.T) {
	a, la := trainWith(t, 2, Options{Workers: 0, Shards: 4})
	b, lb := trainWith(t, 2, Options{Workers: 0, Shards: 4})
	if !bytes.Equal(a, b) {
		t.Fatal("two identical workers=0 shards=4 runs diverged")
	}
	for i := range la {
		if la[i] != lb[i] { //lint:ignore float-equality bitwise reproducibility is the contract under test
			t.Fatalf("epoch %d loss differs: %v vs %v", i, la[i], lb[i])
		}
	}
}

// TestDistributedMatchesLocal is the headline determinism claim: real
// worker processes over TCP produce exactly the single-process weights.
func TestDistributedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local, localLoss := trainWith(t, 2, Options{Workers: 0, Shards: 2})
	distr, distLoss := trainWith(t, 2, Options{Workers: 2, Shards: 2, Seed: 9})
	if !bytes.Equal(local, distr) {
		t.Fatal("workers=2 weights differ from the workers=0 reference")
	}
	for i := range localLoss {
		if localLoss[i] != distLoss[i] { //lint:ignore float-equality bitwise reproducibility is the contract under test
			t.Fatalf("epoch %d loss differs: %v vs %v", i, localLoss[i], distLoss[i])
		}
	}
}

// TestFaultInjectionRecovery is the acceptance test: a two-worker run
// survives one mid-epoch worker kill and one corrupted frame, recovers
// through checkpoint rejoin, and still produces weights byte-identical
// to the single-process run on the same seed.
func TestFaultInjectionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local, _ := trainWith(t, 2, Options{Workers: 0, Shards: 2})

	var journal bytes.Buffer
	// Frame schedule per rank: 1 welcome, 2 sync, then per step a grad
	// request and a commit. Frame 5 is rank 0's step-1 grad request —
	// corrupting it forces a retryable-error resend. The kill fires
	// when rank 1 is asked for step 2's gradients, mid-epoch 1.
	distr, _ := trainWith(t, 2, Options{
		Workers: 2, Shards: 2, Seed: 9,
		RetryBase: 20 * time.Millisecond,
		Fault: FaultPlan{
			KillWorker:   &KillFault{Rank: 1, Epoch: 1, Step: 2},
			CorruptFrame: &FrameFault{Rank: 0, Nth: 5},
		},
		Journal: obs.New(&journal),
	})
	if !bytes.Equal(local, distr) {
		t.Fatal("faulted run diverged from the single-process reference")
	}

	recs, err := obs.Read(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	respawned := false
	for _, r := range recs {
		events[r.Event()]++
		if r.Event() == "dist-join" {
			if spawn, ok := r["spawn"].(float64); ok && spawn > 1 {
				respawned = true
			}
		}
	}
	for _, ev := range []string{"dist-listen", "dist-join", "dist-sync", "dist-fault", "dist-retry", "dist-step-abort", "dist-leave"} {
		if events[ev] == 0 {
			t.Errorf("journal missing %s event; saw %v", ev, events)
		}
	}
	if !respawned {
		t.Error("journal shows no respawned worker join")
	}
	if events["dist-sync"] < 3 {
		t.Errorf("want ≥3 sync events (2 joins + ≥1 rejoin), got %d", events["dist-sync"])
	}
}

// TestMergedJournalCorrelation is the cross-process observability
// acceptance test: a worker is killed mid-epoch, every process journals
// locally, and merging the coordinator's journal with both worker
// journals yields ONE causally ordered stream in which the worker's
// step-fault, the coordinator's step-abort/retry, and the respawned
// worker's re-sync all carry the same trace ID — with the merge output
// byte-identical no matter how (or how often) it is performed.
func TestMergedJournalCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local, _ := trainWith(t, 2, Options{Workers: 0, Shards: 2})

	dir := t.TempDir()
	coordPath := filepath.Join(dir, "coordinator.jsonl")
	prefix := filepath.Join(dir, "run")
	journal, err := obs.Open(coordPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	distr, _ := trainWith(t, 2, Options{
		Workers: 2, Shards: 2, Seed: 9,
		RetryBase: 20 * time.Millisecond,
		Fault: FaultPlan{
			KillWorker:   &KillFault{Rank: 1, Epoch: 1, Step: 2},
			CorruptFrame: &FrameFault{Rank: 0, Nth: 5},
		},
		Journal:             journal,
		Registry:            reg,
		WorkerJournalPrefix: prefix,
	})
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, distr) {
		t.Fatal("faulted run diverged from the single-process reference")
	}

	paths := []string{coordPath, WorkerJournalPath(prefix, 0), WorkerJournalPath(prefix, 1)}
	merged, err := obs.MergeJournalFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-reproducible: merging again — and with the inputs in a
	// different order — must produce the identical stream.
	again, err := obs.MergeJournalFiles(paths[2], paths[0], paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, again) {
		t.Fatal("merge output depends on input order / run")
	}

	recs, err := obs.Read(bytes.NewReader(merged))
	if err != nil {
		t.Fatal(err)
	}

	// The merged stream must be causally ordered: lc never decreases,
	// and every record carries one (all three processes had clocks).
	prevLC := -1.0
	for i, r := range recs {
		lc, ok := r["lc"].(float64)
		if !ok {
			t.Fatalf("record %d (%s) has no lc", i, r.Event())
		}
		if lc < prevLC {
			t.Fatalf("record %d (%s): lc %v < previous %v", i, r.Event(), lc, prevLC)
		}
		prevLC = lc
	}

	// The killed step's fault (worker journal), its abort (coordinator
	// journal), and the respawned worker's re-sync (both journals) must
	// share the step trace derived from (run, epoch 1, step 2).
	wantTrace := obs.FormatID(obs.StepTrace(obs.RunID(9), 1, 2))
	at := func(r obs.Record, key string) int {
		v, _ := r[key].(float64)
		return int(v)
	}
	faultIdx, abortIdx, resyncIdx, workerResyncIdx := -1, -1, -1, -1
	retries, workerStarts := 0, 0
	for i, r := range recs {
		switch r.Event() {
		case "dist-step-fault":
			faultIdx = i
			if r["trace"] != wantTrace {
				t.Errorf("dist-step-fault trace %v, want %s", r["trace"], wantTrace)
			}
			if at(r, "rank") != 1 || at(r, "epoch") != 1 || at(r, "step") != 2 {
				t.Errorf("dist-step-fault at rank=%v epoch=%v step=%v", r["rank"], r["epoch"], r["step"])
			}
		case "dist-step-abort":
			abortIdx = i
			if r["trace"] != wantTrace {
				t.Errorf("dist-step-abort trace %v, want %s", r["trace"], wantTrace)
			}
		case "dist-sync":
			if at(r, "epoch") == 1 && at(r, "step") == 2 {
				resyncIdx = i
				if r["trace"] != wantTrace {
					t.Errorf("re-sync dist-sync trace %v, want %s", r["trace"], wantTrace)
				}
			}
		case "dist-worker-sync":
			if at(r, "epoch") == 1 && at(r, "step") == 2 && at(r, "rank") == 1 {
				workerResyncIdx = i
			}
		case "dist-retry":
			retries++
		case "dist-worker-start":
			workerStarts++
		}
	}
	if faultIdx < 0 || abortIdx < 0 || resyncIdx < 0 || workerResyncIdx < 0 {
		t.Fatalf("missing correlated events: fault=%d abort=%d resync=%d workerResync=%d",
			faultIdx, abortIdx, resyncIdx, workerResyncIdx)
	}
	if retries == 0 {
		t.Error("no dist-retry event (corrupt-frame resend) in merged stream")
	}
	// The respawn appends to rank 1's journal, so the merged stream sees
	// at least three worker starts (two initial spawns + one respawn).
	if workerStarts < 3 {
		t.Errorf("want ≥3 dist-worker-start events (respawn), got %d", workerStarts)
	}
	// Causality across processes: the respawned worker's re-sync record
	// was emitted after witnessing the sync frame the coordinator sent
	// after its abort, so the merge must place it after the abort.
	if workerResyncIdx < abortIdx {
		t.Errorf("respawned worker re-sync (%d) merged before coordinator abort (%d)",
			workerResyncIdx, abortIdx)
	}

	// Worker metrics aggregation: the piggybacked snapshots must surface
	// both ranks' pool counters as labeled families on the coordinator
	// registry.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`worker_pool_tasks_submitted_total{rank="0"}`,
		`worker_pool_tasks_submitted_total{rank="1"}`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics missing %s\n%s", want, prom.String())
		}
	}
}

// TestDropFrameRecovery drops one grad request on the floor: the
// coordinator must time out, retry, and the worker must observe (and
// tolerate) the sequence gap — with no effect on the trained weights.
func TestDropFrameRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local, _ := trainWith(t, 1, Options{Workers: 0, Shards: 2})

	var journal bytes.Buffer
	distr, _ := trainWith(t, 1, Options{
		Workers: 2, Shards: 2, Seed: 9,
		StepTimeout: 2 * time.Second,
		RetryBase:   20 * time.Millisecond,
		Fault: FaultPlan{
			DropFrame: &FrameFault{Rank: 0, Nth: 3}, // step 0's grad request
		},
		Journal: obs.New(&journal),
	})
	if !bytes.Equal(local, distr) {
		t.Fatal("dropped-frame run diverged from the reference")
	}
	out := journal.String()
	for _, ev := range []string{"dist-fault", "dist-timeout", "dist-retry"} {
		if !strings.Contains(out, fmt.Sprintf("%q", ev)) {
			t.Errorf("journal missing %s event", ev)
		}
	}
}

func randMatrix(g *rng.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = g.NormFloat64()
	}
	return m
}

func randSlice(g *rng.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = g.NormFloat64()
	}
	return s
}

func sameGrads(a, b []nn.Grads) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].W.Rows != b[i].W.Rows || a[i].W.Cols != b[i].W.Cols {
			return false
		}
		for j := range a[i].W.Data {
			if a[i].W.Data[j] != b[i].W.Data[j] { //lint:ignore float-equality serialization round trip must be bit-exact
				return false
			}
		}
		for j := range a[i].B {
			if a[i].B[j] != b[i].B[j] { //lint:ignore float-equality serialization round trip must be bit-exact
				return false
			}
		}
	}
	return true
}
