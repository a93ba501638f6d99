package dist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"samplednn/internal/binio"
	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

// Environment protocol between the coordinator's spawner and the worker
// process it re-executes. A binary that may host workers (mlptrain, the
// dist test binary) checks IsWorkerProcess early in main/TestMain and
// hands off to WorkerMain.
const (
	// EnvWorker marks the process as a dist worker ("1").
	EnvWorker = "SAMPLEDNN_DIST_WORKER"
	// EnvJoin is the coordinator address to dial.
	EnvJoin = "SAMPLEDNN_DIST_JOIN"
	// EnvRank is the worker's assigned rank.
	EnvRank = "SAMPLEDNN_DIST_RANK"
	// EnvKill, when set to "epoch:step", makes the worker exit abruptly
	// when asked for that step's gradients — the crash half of the
	// FaultPlan. The spawner sets it only on a first spawn, never on a
	// respawn, so the replacement worker survives.
	EnvKill = "SAMPLEDNN_DIST_KILL"
	// EnvJournal is a journal path prefix; the worker appends its events
	// to "<prefix>.rank<R>.jsonl". Append mode means a respawned rank
	// continues the same file, so the kill fault's final record and the
	// replacement's first record live in one stream.
	EnvJournal = "SAMPLEDNN_DIST_JOURNAL"
)

// IsWorkerProcess reports whether this process was spawned as a dist
// worker and should hand control to WorkerMain instead of running its
// normal main.
func IsWorkerProcess() bool { return os.Getenv(EnvWorker) == "1" }

// WorkerMain runs the worker protocol against the coordinator named by
// the environment and returns the process exit code. It never returns
// 0 unless the coordinator sent an orderly shutdown.
func WorkerMain() int {
	addr := os.Getenv(EnvJoin)
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if addr == "" || err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: bad environment: %s=%q %s=%q\n",
			EnvJoin, addr, EnvRank, os.Getenv(EnvRank))
		return 2
	}
	var journal *obs.Journal
	if prefix := os.Getenv(EnvJournal); prefix != "" {
		j, jerr := obs.Open(WorkerJournalPath(prefix, rank))
		if jerr != nil {
			// Telemetry must never keep a worker from serving.
			fmt.Fprintf(os.Stderr, "dist worker rank %d: journal: %v\n", rank, jerr)
		} else {
			journal = j
			defer j.Close()
		}
	}
	if err := runWorker(addr, rank, os.Getenv(EnvKill), journal); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker rank %d: %v\n", rank, err)
		return 1
	}
	return 0
}

// WorkerJournalPath is the journal file a worker of the given rank
// appends to under a WorkerJournalPrefix.
func WorkerJournalPath(prefix string, rank int) string {
	return prefix + ".rank" + strconv.Itoa(rank) + ".jsonl"
}

// RunWorker dials the coordinator at addr and serves as the worker with
// the given rank until an orderly shutdown or a fatal protocol error.
// It is the manual-join entry point (mlptrain -dist-join) for running a
// worker the coordinator did not spawn itself, e.g. on another machine
// against a -dist-nospawn coordinator.
func RunWorker(addr string, rank int) error { return runWorker(addr, rank, "", nil) }

// worker is one replica: it mirrors the coordinator's model, optimizer,
// RNG stream, and batch permutation in lockstep, computes gradient
// shards on request, and applies every committed reduced gradient
// exactly as the coordinator does.
type worker struct {
	fc   *frameConn
	rank int

	// Observability: the worker journals its own lifecycle (nil journal
	// = no-op emits), shares the connection's Lamport clock with it, and
	// piggybacks registry snapshots on acks at the welcome's cadence.
	journal   *obs.Journal
	registry  *obs.Registry
	run       uint64
	snapEvery int
	commits   int

	ds      *dataset.Dataset
	method  *core.Standard
	optim   opt.Optimizer
	g       *rng.RNG
	batcher *dataset.Batcher

	batchSize  int
	shards     int
	numBatches int

	// Position: the step the worker stands ready to compute. Valid only
	// after the first sync.
	synced bool
	epoch  int
	step   int

	// The current step's batch, copied out of the batcher (which reuses
	// its buffers) so duplicate gradient requests — retries after a
	// corrupt or dropped frame, or a step re-run after a peer died —
	// recompute from identical rows. bx and by are retained and
	// overwritten step after step.
	haveBatch bool
	bx        tensor.Matrix
	by        []int

	// grads receives every commit's reduced gradient; shaped like the
	// replica's layers at sync, overwritten in place afterwards.
	grads []nn.Grads

	// lastAck replays the commit ack when a duplicate commit arrives
	// (the coordinator retried because our ack was lost).
	lastAck *posAck

	// Kill fault: exit abruptly when asked for this step.
	killEpoch, killStep int
	hasKill             bool

	seenGaps int
}

// workerIdleTimeout bounds how long a worker waits for the next
// coordinator frame. It must comfortably cover the coordinator's
// between-step work (evaluation, checkpointing at epoch boundaries);
// when it expires the worker assumes the coordinator died and exits, so
// orphaned workers never outlive a crashed training run for long.
const workerIdleTimeout = 2 * time.Minute

func runWorker(addr string, rank int, killSpec string, journal *obs.Journal) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dialing coordinator: %w", err)
	}
	// The worker dialed the coordinator it was told to trust, and only
	// learns the model's size from that coordinator's first sync, so its
	// side of the connection accepts any frame binio does.
	w := &worker{fc: newFrameConn(conn, 10*time.Second, binio.MaxFrameLen), rank: rank, journal: journal, registry: obs.Default}
	// A fresh clock that witnesses the coordinator's value on the very
	// first frame, so every worker journal record sorts causally after
	// the coordinator events that led to it.
	w.fc.clock = obs.NewClock()
	if journal != nil && journal.Lamport() == nil {
		journal.SetLamport(w.fc.clock)
	}
	defer w.fc.Close()
	if killSpec != "" {
		if _, err := fmt.Sscanf(killSpec, "%d:%d", &w.killEpoch, &w.killStep); err != nil {
			return fmt.Errorf("bad %s=%q: %w", EnvKill, killSpec, err)
		}
		w.hasKill = true
	}

	if err := w.fc.send(msgHello, obs.Ctx{}, &hello{Rank: rank, PID: os.Getpid()}); err != nil {
		return fmt.Errorf("sending hello: %w", err)
	}
	f, err := w.fc.recv(w.fc.timeout)
	if err != nil {
		return fmt.Errorf("awaiting welcome: %w", err)
	}
	if f.Type == msgError {
		if e, derr := decodeErrMsg(f.Payload); derr == nil {
			return fmt.Errorf("coordinator rejected join: %s", e.Text)
		}
		return fmt.Errorf("coordinator rejected join")
	}
	if f.Type != msgWelcome {
		return fmt.Errorf("expected welcome, got frame type %d", f.Type)
	}
	wm, err := decodeWelcome(f.Payload)
	if err != nil {
		return err
	}
	if err := w.build(wm); err != nil {
		return err
	}
	w.run = wm.Run
	w.snapEvery = wm.SnapEvery
	w.journal.EmitCtx(obs.RootCtx(w.run), "dist-worker-start",
		map[string]any{"rank": w.rank, "pid": os.Getpid(), "addr": addr})
	err = w.serve()
	if err == nil {
		w.journal.EmitCtx(obs.RootCtx(w.run), "dist-worker-stop", map[string]any{"rank": w.rank})
	}
	return err
}

// build constructs the replica skeleton from the welcome: the dataset
// (regenerated bit-for-bit from spec + seed + caps) and the method. The
// mutable state arrives with the first sync.
func (w *worker) build(wm *welcome) error {
	if wm.Rank != w.rank {
		return fmt.Errorf("welcome assigns rank %d, spawned as %d", wm.Rank, w.rank)
	}
	if wm.Method != "standard" {
		return fmt.Errorf("method %q is not distributable (only standard exports gradients)", wm.Method)
	}
	if wm.Shards < 1 || wm.BatchSize < 1 {
		return fmt.Errorf("welcome carries shards=%d batch=%d", wm.Shards, wm.BatchSize)
	}
	w.ds = dataset.GenerateFromSpec(wm.Spec, dataset.Options{
		Seed: wm.DataSeed, MaxTrain: wm.MaxTrain, MaxTest: wm.MaxTest, MaxVal: wm.MaxVal,
	})
	optim, err := opt.ByName(wm.Optimizer, wm.LR)
	if err != nil {
		return fmt.Errorf("welcome optimizer: %w", err)
	}
	w.optim = optim
	w.batchSize = wm.BatchSize
	w.shards = wm.Shards
	// The RNG is a placeholder until the first sync restores the
	// coordinator's stream; NewBatcher's construction shuffle is
	// discarded by the sync's SetOrder.
	w.g = rng.New(0)
	w.batcher = dataset.NewBatcher(w.ds.Train, w.batchSize, w.g)
	w.numBatches = w.batcher.NumBatches()
	return nil
}

// serve is the worker's request loop. Corrupt inbound frames (payload
// CRC failures — the stream stays aligned) are answered with a
// retryable error so the coordinator resends; everything else fatal
// tears the process down and lets the coordinator's respawn path take
// over.
func (w *worker) serve() error {
	for {
		f, err := w.fc.recv(workerIdleTimeout)
		if err == binio.ErrFrameCorrupt {
			// The header (context included) passed its own CRC, so the
			// complaint can carry the faulted exchange's trace.
			w.fc.sendErr(f.Ctx.Child(1), w.epoch, w.step, errRetryable, "frame payload failed CRC")
			continue
		}
		if err != nil {
			return fmt.Errorf("reading frame: %w", err)
		}
		if g := w.fc.gaps; g != w.seenGaps {
			// A sequence gap is the signature of a dropped frame: the
			// coordinator consumed sequence numbers we never received.
			fmt.Fprintf(os.Stderr, "dist worker rank %d: frame sequence gap (total %d)\n", w.rank, g)
			w.seenGaps = g
		}
		// Replies and journal records adopt the inbound frame's context
		// as a child span: same run and trace, a span parented under the
		// frame that caused the work.
		cx := f.Ctx.Child(uint64(w.rank) + 1)
		switch f.Type {
		case msgSync:
			err = w.handleSync(cx, f.Payload)
		case msgGradRequest:
			err = w.handleGradRequest(cx, f.Payload)
		case msgCommit:
			err = w.handleCommit(cx, f.Payload)
		case msgShutdown:
			return nil
		default:
			err = fmt.Errorf("unexpected frame type %d", f.Type)
		}
		if err != nil {
			return err
		}
	}
}

// handleSync restores the coordinator's full state: weights, optimizer
// accumulators, RNG stream, and the in-flight epoch's batch permutation,
// fast-forwarded to the step the coordinator stands at. This is both
// the initial join and the crash-recovery rejoin path — a respawned
// worker replays its position from the carried permutation rather than
// re-living the epoch.
func (w *worker) handleSync(cx obs.Ctx, payload []byte) error {
	s, err := decodeSync(payload)
	if err != nil {
		return fmt.Errorf("decoding sync: %w", err)
	}
	ck, err := train.DecodeCheckpoint(s.Blob)
	if err != nil {
		return fmt.Errorf("sync checkpoint: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(ck.NetBlob))
	if err != nil {
		return fmt.Errorf("sync network: %w", err)
	}
	if ck.OptimizerName != "" && ck.OptimizerName != w.optim.Name() {
		return fmt.Errorf("sync optimizer %q, worker built %q", ck.OptimizerName, w.optim.Name())
	}
	if ss, ok := w.optim.(opt.StateSaver); ok {
		if err := ss.LoadState(bytes.NewReader(ck.OptimizerState)); err != nil {
			return fmt.Errorf("sync optimizer state: %w", err)
		}
	}
	if ck.HasLR {
		if adj, ok := w.optim.(opt.LRAdjuster); ok {
			adj.SetLearningRate(ck.LR)
		}
	}
	if err := w.g.Restore(ck.RNGState); err != nil {
		return fmt.Errorf("sync rng: %w", err)
	}
	if err := w.batcher.SetOrder(ck.BatchOrder); err != nil {
		return fmt.Errorf("sync batch order: %w", err)
	}
	w.batcher.Skip(s.Step)
	w.method = core.NewStandard(net, w.optim)
	w.grads = make([]nn.Grads, len(net.Layers))
	for i, l := range net.Layers {
		w.grads[i] = l.ZeroGrads()
	}
	w.epoch, w.step = s.Epoch, s.Step
	w.synced = true
	w.haveBatch = false
	w.lastAck = nil
	w.journal.EmitCtx(cx, "dist-worker-sync",
		map[string]any{"rank": w.rank, "epoch": s.Epoch, "step": s.Step})
	// A sync ack always carries a registry snapshot: the worker may have
	// just respawned, and the coordinator's /metrics should reflect the
	// new process immediately.
	ack := posAck{Epoch: s.Epoch, Step: s.Step, WeightCRC: weightCRC(net), Snap: w.snapshotBlob()}
	return w.fc.send(msgSyncAck, cx, &ack)
}

// snapshotBlob encodes the worker's registry for ack piggybacking; any
// failure yields nil (no snapshot this ack) — telemetry never breaks
// the protocol.
func (w *worker) snapshotBlob() []byte {
	if w.registry == nil {
		return nil
	}
	b, err := obs.EncodeSnapshot(w.registry.Snapshot())
	if err != nil {
		return nil
	}
	return b
}

// handleGradRequest computes the requested shard gradients of the
// current step's batch. Duplicate requests for the in-flight step are
// served from the cached batch copy; weights have not moved (no commit
// intervened), so the recomputation is bit-identical — that is what
// makes coordinator retries idempotent.
func (w *worker) handleGradRequest(cx obs.Ctx, payload []byte) error {
	req, err := decodeGradRequest(payload)
	if err != nil {
		return fmt.Errorf("decoding grad request: %w", err)
	}
	if !w.synced || req.Epoch != w.epoch || req.Step != w.step {
		w.fc.sendErr(cx, w.epoch, w.step, errDesync,
			fmt.Sprintf("asked for step %d/%d, standing at %d/%d (synced=%v)",
				req.Epoch, req.Step, w.epoch, w.step, w.synced))
		return nil
	}
	if w.hasKill && req.Epoch == w.killEpoch && req.Step == w.killStep {
		// Injected crash: die exactly where a real worker fault would —
		// mid-step, after the coordinator committed to this step's
		// request fan-out. The final journal record carries the step's
		// trace (from the inbound frame), so the merged stream shows the
		// fault, the coordinator's retry, and the respawn's re-sync on
		// one trace ID; Sync makes it durable past the os.Exit.
		w.journal.EmitCtx(cx, "dist-step-fault",
			map[string]any{"rank": w.rank, "epoch": req.Epoch, "step": req.Step, "kind": "kill"})
		_ = w.journal.Sync()
		os.Exit(3)
	}
	if !w.haveBatch {
		x, y := w.batcher.Next()
		if x == nil {
			w.fc.sendErr(cx, w.epoch, w.step, errDesync, "batcher exhausted before epoch end")
			return nil
		}
		w.keepBatch(x, y)
	}
	if req.ShardLo < 0 || req.ShardHi > w.shards || req.ShardLo >= req.ShardHi {
		w.fc.sendErr(cx, w.epoch, w.step, errFatal,
			fmt.Sprintf("shard range [%d,%d) outside [0,%d)", req.ShardLo, req.ShardHi, w.shards))
		return fmt.Errorf("coordinator requested bad shard range [%d,%d)", req.ShardLo, req.ShardHi)
	}
	reply := gradReply{Epoch: req.Epoch, Step: req.Step}
	rows := w.bx.Rows
	for s := req.ShardLo; s < req.ShardHi; s++ {
		lo, hi := shardRange(rows, w.shards, s)
		if lo == hi {
			continue
		}
		loss, grads := w.method.ComputeGrads(w.bx.RowRange(lo, hi), w.by[lo:hi])
		reply.Shards = append(reply.Shards, shardGrad{Index: s, Rows: hi - lo, Loss: loss, Grads: grads})
	}
	return w.fc.send(msgGradReply, cx, &reply)
}

// keepBatch copies the step's batch into the worker's retained buffers:
// the batcher reuses its own, and retries must see the same rows.
func (w *worker) keepBatch(x *tensor.Matrix, y []int) {
	w.bx = tensor.Matrix{Rows: x.Rows, Cols: x.Cols, Data: append(w.bx.Data[:0], x.Data...)}
	w.by = append(w.by[:0], y...)
	w.haveBatch = true
}

// handleCommit applies the reduced gradient — the identical bytes every
// replica applies — and advances the worker's position, rolling the
// batcher (and its RNG draw) over at epoch boundaries exactly when the
// coordinator's trainer does. The returned weight CRC lets the
// coordinator verify the replicas are still bit-identical.
func (w *worker) handleCommit(cx obs.Ctx, payload []byte) error {
	c, gradBytes, err := decodeCommit(payload)
	if err != nil {
		return fmt.Errorf("decoding commit: %w", err)
	}
	if a := w.lastAck; a != nil && c.Epoch == a.Epoch && c.Step == a.Step {
		// Duplicate commit: our ack was lost. Replay it without
		// re-applying the gradient.
		return w.fc.send(msgCommitAck, cx, a)
	}
	if !w.synced || c.Epoch != w.epoch || c.Step != w.step {
		w.fc.sendErr(cx, w.epoch, w.step, errDesync,
			fmt.Sprintf("commit for step %d/%d, standing at %d/%d", c.Epoch, c.Step, w.epoch, w.step))
		return nil
	}
	if err := decodeGrads(gradBytes, w.grads); err != nil {
		return fmt.Errorf("decoding commit: %w", err)
	}
	if !w.haveBatch {
		// This worker was assigned no shards this step (more workers
		// than shards), so it never fetched the batch; advance the
		// batcher past it to stay aligned with the permutation.
		w.batcher.Skip(1)
	}
	w.method.ApplyGrads(w.grads)
	w.haveBatch = false
	w.step++
	if w.step >= w.numBatches {
		w.epoch++
		w.step = 0
		// Consume the next epoch's shuffle now, mirroring the trainer's
		// top-of-epoch Reset, so the RNG streams stay in lockstep.
		w.batcher.Reset()
	}
	ack := posAck{Epoch: c.Epoch, Step: c.Step, WeightCRC: weightCRC(w.method.Net())}
	w.commits++
	if w.snapEvery > 0 && w.commits%w.snapEvery == 0 {
		ack.Snap = w.snapshotBlob()
	}
	// The replayable ack intentionally drops the snapshot: a replay
	// serves the protocol, not telemetry, and stale metrics are worse
	// than none.
	replay := ack
	replay.Snap = nil
	w.lastAck = &replay
	return w.fc.send(msgCommitAck, cx, &ack)
}

// killEnvValue renders a KillFault for EnvKill.
func killEnvValue(k *KillFault) string {
	return strconv.Itoa(k.Epoch) + ":" + strconv.Itoa(k.Step)
}

// parseHostPort validates a join address early with a useful error.
func parseHostPort(addr string) error {
	if !strings.Contains(addr, ":") {
		return fmt.Errorf("dist: address %q has no port", addr)
	}
	return nil
}
