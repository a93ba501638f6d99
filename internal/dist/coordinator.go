package dist

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"samplednn/internal/binio"
	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the number of worker processes. Zero runs the sharded
	// step entirely in-process — the reference the distributed paths
	// must match byte-for-byte.
	Workers int
	// Shards is the number of logical gradient shards per step (default
	// max(Workers, 1)). The shard split — and therefore the reduced
	// gradient — is a function of Shards alone, so runs with different
	// worker counts but equal Shards produce identical weights.
	Shards int
	// ListenAddr is the coordinator's listen address (default
	// "127.0.0.1:0").
	ListenAddr string
	// Data is the provenance of the training dataset (seed and caps):
	// workers regenerate the dataset bit-for-bit from it.
	Data dataset.Options
	// IOTimeout bounds every single frame read/write (default 10s).
	IOTimeout time.Duration
	// StepTimeout bounds how long the coordinator waits for a worker's
	// gradient or commit reply, covering the worker's compute time
	// (default 60s).
	StepTimeout time.Duration
	// RetryBase is the first retry backoff; successive retries double
	// it, capped at 16x, plus seeded jitter (default 50ms).
	RetryBase time.Duration
	// Retries is the per-RPC retry budget (default 3).
	Retries int
	// StepRetries is how many times a whole step may be re-run after a
	// worker failure before the run faults (default 3).
	StepRetries int
	// RespawnLimit caps how many times one rank may be respawned
	// (default 3).
	RespawnLimit int
	// Seed drives retry jitter (and nothing else — jitter never touches
	// training state).
	Seed uint64
	// NoSpawn disables the built-in process spawner; workers are
	// expected to join on their own (tests drive this, and it is the
	// hook for running workers on other machines).
	NoSpawn bool
	// SpawnEnv appends extra environment entries to spawned workers.
	SpawnEnv []string
	// Fault injects failures for robustness tests. Zero injects none.
	Fault FaultPlan
	// Journal receives dist lifecycle events (dist-listen, dist-join,
	// dist-sync, dist-retry, dist-timeout, dist-step-abort, dist-leave,
	// dist-fault, dist-seq-gap, dist-shutdown), each stamped with the
	// correlation context: step-scoped events share one trace ID per
	// (epoch, step) across every process that touched the step.
	Journal *obs.Journal
	// Registry receives dist counters, the reduce-latency distribution
	// dist.reduce_ns and its split into dist.stage_ns.{encode,wire,fold,
	// apply} (default obs.Default), plus the per-rank worker snapshot
	// families piggybacked on acks.
	Registry *obs.Registry
	// Run is the run identifier shared by every process in the run
	// (default obs.RunID(Seed)).
	Run uint64
	// Clock is the coordinator's Lamport clock, ticked on every frame
	// send and journal record and witnessed on every receive (default a
	// fresh clock). It is attached to Journal when the journal has no
	// clock yet, so frames and journal records share one causal history.
	Clock *obs.Clock
	// WorkerJournalPrefix, when non-empty, makes every spawned worker
	// journal to "<prefix>.rank<R>.jsonl" (appending across respawns);
	// journalcat -merge folds those files and the coordinator's journal
	// into one causally ordered stream.
	WorkerJournalPrefix string
	// SnapshotEvery is the commit cadence at which workers piggyback
	// registry snapshots on their acks (default 5; sync acks always
	// carry one).
	SnapshotEvery int
}

func (o *Options) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = o.Workers
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.ListenAddr == "" {
		o.ListenAddr = "127.0.0.1:0"
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 60 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.Retries <= 0 {
		o.Retries = 3
	}
	if o.StepRetries <= 0 {
		o.StepRetries = 3
	}
	if o.RespawnLimit <= 0 {
		o.RespawnLimit = 3
	}
	if o.Registry == nil {
		o.Registry = obs.Default
	}
	if o.Run == 0 {
		o.Run = obs.RunID(o.Seed)
	}
	if o.Clock == nil {
		o.Clock = obs.NewClock()
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 5
	}
}

// remoteWorker is the coordinator's view of one connected worker.
type remoteWorker struct {
	fc     *frameConn
	cmd    *exec.Cmd
	pid    int
	synced bool
}

// Coordinator drives synchronous data-parallel SGD across worker
// processes. It implements train.BatchStepper: the trainer hands it
// every batch, it fans gradient shards out to the workers, reduces them
// in fixed shard order, applies the result to the trainer's own replica,
// and commits the identical reduced gradient to every worker.
type Coordinator struct {
	opts    Options
	method  core.Method
	gc      core.GradComputer
	ds      *dataset.Dataset
	welcome welcome

	ln          *net.TCPListener
	workers     []*remoteWorker
	spawned     []int
	sent        []int // frames sent per rank, the FrameFault counter
	pendingCmds []pendingSpawn

	expected    train.StepPos
	hasExpected bool
	jitter      *rng.RNG
	root        obs.Ctx // run-scoped context for control-plane events

	faultDropDone, faultDelayDone, faultCorruptDone bool

	// red and commit are reused by every step: the accumulators are
	// zeroed, the commit frame re-encoded in place. The commit frame is
	// the coordinator's, not a connection's, because one payload goes to
	// every rank; it stays untouched from the fan-out to the last ack,
	// so a retry resends the bytes the first send carried.
	red    *reducer
	commit wireFrame
	// replyCap bounds a payload a joined worker may send.
	replyCap int

	reduceNS *obs.Distribution
	// stageNS splits a successful step's reduceNS; laps accumulates the
	// running attempt's share per stage since lapAt.
	stageNS [numStages]*obs.Distribution
	laps    [numStages]int64
	lapAt   time.Time
}

// The stages a distributed step's wall time is attributed to. Every
// nanosecond between tryStep's entry and return lands in exactly one,
// so the four sum to dist.reduce_ns.
const (
	// stageEncode: rendering messages into frames, payload CRC, header.
	stageEncode = iota
	// stageWire: blocked in a conn read or write — which includes
	// waiting for the workers to compute and apply — the receive-side
	// payload CRC, and retry backoff.
	stageWire
	// stageFold: walking grad replies and folding them into the reducer.
	stageFold
	// stageApply: the local ApplyGrads and weight CRC.
	stageApply
	numStages
)

var stageNames = [numStages]string{"encode", "wire", "fold", "apply"}

// lap charges the time since the previous lap to stage.
func (c *Coordinator) lap(stage int) {
	t := now()
	c.laps[stage] += t.Sub(c.lapAt).Nanoseconds()
	c.lapAt = t
}

// helloCap bounds the one frame an unauthenticated connection may send:
// a hello is 12 bytes. maxSnapshotLen is the room an ack gets, beyond
// its fixed fields, for a piggybacked registry snapshot.
const (
	helloCap       = 64
	maxSnapshotLen = 1 << 20
)

// NewCoordinator builds a coordinator for the given method (which must
// export gradients via core.GradComputer) over the dataset the trainer
// runs on. With opts.Workers > 0 it starts listening immediately;
// workers are spawned lazily on the first step.
func NewCoordinator(m core.Method, ds *dataset.Dataset, batchSize int, opts Options) (*Coordinator, error) {
	opts.setDefaults()
	gc, ok := m.(core.GradComputer)
	if !ok {
		return nil, fmt.Errorf("dist: method %q does not export gradients (core.GradComputer)", m.Name())
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("dist: batch size %d", batchSize)
	}
	c := &Coordinator{
		opts:   opts,
		method: m,
		gc:     gc,
		ds:     ds,
		jitter: rng.New(opts.Seed ^ 0xd1577ca7),
		root:   obs.RootCtx(opts.Run),
	}
	if opts.Journal != nil && opts.Journal.Lamport() == nil {
		// One clock for frames and journal records: the merge order of
		// multi-process journals is only causal if both share it.
		opts.Journal.SetLamport(opts.Clock)
	}
	c.reduceNS = opts.Registry.Distribution("dist.reduce_ns")
	for i, name := range stageNames {
		c.stageNS[i] = opts.Registry.Distribution("dist.stage_ns." + name)
	}
	c.red = newReducer(m.Net())
	c.welcome = welcome{
		Spec:      ds.Spec,
		DataSeed:  opts.Data.Seed,
		MaxTrain:  opts.Data.MaxTrain,
		MaxTest:   opts.Data.MaxTest,
		MaxVal:    opts.Data.MaxVal,
		BatchSize: batchSize,
		Shards:    opts.Shards,
		Method:    m.Name(),
		Run:       opts.Run,
		SnapEvery: opts.SnapshotEvery,
	}
	o := m.Optimizer()
	c.welcome.Optimizer = o.Name()
	if adj, ok := o.(opt.LRAdjuster); ok {
		c.welcome.LR = adj.LearningRate()
	}
	if opts.Workers > 0 {
		if err := parseHostPort(opts.ListenAddr); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", opts.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("dist: listen: %w", err)
		}
		c.ln = ln.(*net.TCPListener)
		c.workers = make([]*remoteWorker, opts.Workers)
		c.spawned = make([]int, opts.Workers)
		c.sent = make([]int, opts.Workers)
		// The longest legitimate worker payload is a gradReply carrying
		// the most shards one rank can be assigned: per shard 8 bytes a
		// parameter, 16 of shape and counts a layer, 20 of header.
		perRank := (opts.Shards + opts.Workers - 1) / opts.Workers
		net := m.Net()
		c.replyCap = 12 + perRank*(20+16*len(net.Layers)+8*net.NumParams()) + maxSnapshotLen
		c.emit(c.root, "dist-listen", map[string]any{"addr": c.Addr(), "workers": opts.Workers, "shards": opts.Shards})
	}
	return c, nil
}

// Addr returns the coordinator's listen address ("" when workers=0).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// batchCount returns batches per epoch.
func (c *Coordinator) batchCount() int {
	size := c.welcome.BatchSize
	return (c.ds.Train.Len() + size - 1) / size
}

func (c *Coordinator) nextPos(pos train.StepPos) train.StepPos {
	if pos.Step+1 < c.batchCount() {
		return train.StepPos{Epoch: pos.Epoch, Step: pos.Step + 1}
	}
	return train.StepPos{Epoch: pos.Epoch + 1, Step: 0}
}

// emit journals one dist event under the given correlation context.
// EmitCtx is nil-safe, so a journal-less coordinator pays only the call.
func (c *Coordinator) emit(cx obs.Ctx, ev string, fields map[string]any) {
	c.opts.Journal.EmitCtx(cx, ev, fields)
}

// stepCtx is the context every frame and event of one step's exchange
// carries; retries, re-syncs, and respawns of the same step — in any
// process — share its trace ID.
func (c *Coordinator) stepCtx(pos train.StepPos) obs.Ctx {
	return obs.StepCtx(c.opts.Run, pos.Epoch, pos.Step)
}

// StepBatch implements train.BatchStepper. It leaves the trainer's
// replica exactly as a local sharded step would; on return every live
// worker holds bit-identical weights (verified by CRC).
func (c *Coordinator) StepBatch(pos train.StepPos, x *tensor.Matrix, y []int, state train.StateFunc) (float64, error) {
	if c.opts.Workers == 0 {
		start := now()
		loss := c.localStep(x, y)
		c.reduceNS.Observe(now().Sub(start).Nanoseconds())
		return loss, nil
	}
	if !c.hasExpected || pos != c.expected {
		// The trainer jumped (first step, resume, or divergence
		// rollback): every worker's replica is stale.
		for _, w := range c.workers {
			if w != nil {
				w.synced = false
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.StepRetries; attempt++ {
		if err := c.ensureWorkers(pos, state); err != nil {
			return 0, err
		}
		start := now()
		c.laps, c.lapAt = [numStages]int64{}, start
		loss, err := c.tryStep(pos, x, y)
		if err == nil {
			c.reduceNS.Observe(now().Sub(start).Nanoseconds())
			for i, d := range c.stageNS {
				d.Observe(c.laps[i])
			}
			c.expected = c.nextPos(pos)
			c.hasExpected = true
			return loss, nil
		}
		lastErr = err
		c.opts.Registry.Counter("dist.step_aborts").Inc()
		c.emit(c.stepCtx(pos), "dist-step-abort", map[string]any{
			"epoch": pos.Epoch, "step": pos.Step, "attempt": attempt, "error": err.Error(),
		})
	}
	return 0, fmt.Errorf("dist: step %d/%d failed after %d attempts: %w",
		pos.Epoch, pos.Step, c.opts.StepRetries+1, lastErr)
}

// localStep is the workers=0 reference: the same shard split, the same
// fixed-order reduce, the same single apply — just computed in-process.
func (c *Coordinator) localStep(x *tensor.Matrix, y []int) float64 {
	rows := x.Rows
	c.red.reset()
	for s := 0; s < c.opts.Shards; s++ {
		lo, hi := shardRange(rows, c.opts.Shards, s)
		if lo == hi {
			continue
		}
		loss, grads := c.gc.ComputeGrads(x.RowRange(lo, hi), y[lo:hi])
		c.red.Add(s, hi-lo, rows, loss, grads)
	}
	loss, grads := c.red.Result(rows)
	c.gc.ApplyGrads(grads)
	return loss
}

// Close shuts the cluster down: an orderly shutdown frame to every live
// worker, then the listener and any remaining processes.
func (c *Coordinator) Close() error {
	for r, w := range c.workers {
		if w == nil {
			continue
		}
		_ = c.sendTo(r, c.root, msgShutdown, nil)
		_ = w.fc.Close()
		if w.cmd != nil {
			_ = w.cmd.Wait()
		}
		c.workers[r] = nil
	}
	for _, p := range c.pendingCmds {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
	}
	c.pendingCmds = nil
	if c.ln != nil {
		c.emit(c.root, "dist-shutdown", nil)
		return c.ln.Close()
	}
	return nil
}

// failWorker drops rank r's connection and process; the next
// ensureWorkers respawns and resyncs it.
func (c *Coordinator) failWorker(r int, reason string) {
	w := c.workers[r]
	if w == nil {
		return
	}
	c.emit(c.root, "dist-leave", map[string]any{"rank": r, "reason": reason})
	_ = w.fc.Close()
	if w.cmd != nil {
		// The process may be alive but wedged (a timeout, not a crash);
		// kill it so the respawn does not race a zombie peer.
		_ = w.cmd.Process.Kill()
		_ = w.cmd.Wait()
	}
	c.workers[r] = nil
}

// ensureWorkers brings every rank to a live, synced connection standing
// at pos: spawning missing processes, accepting their joins, and
// pushing a full-state sync (the SNCK checkpoint the trainer's
// StateFunc captures, carrying the in-flight epoch's batch permutation)
// to every worker whose replica is stale.
func (c *Coordinator) ensureWorkers(pos train.StepPos, state train.StateFunc) error {
	missing := 0
	for r, w := range c.workers {
		if w == nil {
			missing++
			if c.opts.NoSpawn {
				continue
			}
			if c.spawned[r] > c.opts.RespawnLimit {
				return fmt.Errorf("dist: rank %d exceeded respawn limit %d", r, c.opts.RespawnLimit)
			}
			if err := c.spawnWorker(r); err != nil {
				return err
			}
		}
	}
	for missing > 0 {
		if err := c.acceptWorker(); err != nil {
			return err
		}
		missing--
	}

	var blob []byte
	for r, w := range c.workers {
		if w.synced {
			continue
		}
		if blob == nil {
			ck, err := state()
			if err != nil {
				return fmt.Errorf("dist: capturing sync state: %w", err)
			}
			if blob, err = ck.Encode(); err != nil {
				return fmt.Errorf("dist: encoding sync state: %w", err)
			}
		}
		if err := c.syncWorker(r, pos, blob); err != nil {
			return err
		}
		c.emit(c.stepCtx(pos), "dist-sync", map[string]any{"rank": r, "epoch": pos.Epoch, "step": pos.Step, "pid": w.pid})
	}
	return nil
}

// spawnWorker re-executes this binary as a worker for rank r. The kill
// fault is armed only on the rank's first spawn, so the respawned
// replacement survives.
func (c *Coordinator) spawnWorker(r int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("dist: locating executable: %w", err)
	}
	cmd := exec.Command(exe)
	env := make([]string, 0, len(os.Environ())+4)
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, EnvWorker+"=") || strings.HasPrefix(kv, EnvJoin+"=") ||
			strings.HasPrefix(kv, EnvRank+"=") || strings.HasPrefix(kv, EnvKill+"=") ||
			strings.HasPrefix(kv, EnvJournal+"=") {
			continue
		}
		env = append(env, kv)
	}
	env = append(env,
		EnvWorker+"=1",
		EnvJoin+"="+c.Addr(),
		fmt.Sprintf("%s=%d", EnvRank, r))
	if p := c.opts.WorkerJournalPrefix; p != "" {
		env = append(env, EnvJournal+"="+p)
	}
	if k := c.opts.Fault.KillWorker; k != nil && k.Rank == r && c.spawned[r] == 0 {
		env = append(env, EnvKill+"="+killEnvValue(k))
	}
	env = append(env, c.opts.SpawnEnv...)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("dist: spawning rank %d: %w", r, err)
	}
	c.spawned[r]++
	if c.spawned[r] > 1 {
		c.opts.Registry.Counter("dist.respawns").Inc()
	}
	// Remember the process so accept can attach it to the rank's slot.
	c.pendingCmds = append(c.pendingCmds, pendingSpawn{rank: r, cmd: cmd})
	return nil
}

type pendingSpawn struct {
	rank int
	cmd  *exec.Cmd
}

// acceptWorker accepts one join, validates its hello, and installs it
// in the rank table. Junk connections (bad rank, occupied slot) are
// rejected and do not consume the accept; the loop is bounded by the
// accept deadline.
func (c *Coordinator) acceptWorker() error {
	deadline := deadlineFrom(c.opts.StepTimeout)
	for {
		if err := c.ln.SetDeadline(deadline); err != nil {
			return err
		}
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: accepting worker: %w", err)
		}
		// Anyone can connect, and a frame header's CRC is no secret:
		// until its hello checks out, a connection may send one
		// hello-sized frame and nothing longer.
		fc := newFrameConn(conn, c.opts.IOTimeout, helloCap)
		fc.clock = c.opts.Clock
		f, err := fc.recv(c.opts.IOTimeout)
		if err != nil || f.Type != msgHello {
			_ = fc.Close()
			continue
		}
		h, err := decodeHello(f.Payload)
		if err != nil {
			_ = fc.Close()
			continue
		}
		if h.Rank < 0 || h.Rank >= len(c.workers) || c.workers[h.Rank] != nil {
			fc.sendErr(c.root, 0, 0, errFatal, fmt.Sprintf("rank %d not joinable", h.Rank))
			_ = fc.Close()
			continue
		}
		fc.maxRecv = c.replyCap
		w := &remoteWorker{fc: fc, pid: h.PID}
		for i, p := range c.pendingCmds {
			if p.rank == h.Rank {
				w.cmd = p.cmd
				c.pendingCmds = append(c.pendingCmds[:i], c.pendingCmds[i+1:]...)
				break
			}
		}
		c.workers[h.Rank] = w
		wm := c.welcome
		wm.Rank = h.Rank
		if err := c.sendTo(h.Rank, c.root, msgWelcome, &wm); err != nil {
			c.failWorker(h.Rank, "welcome: "+err.Error())
			return fmt.Errorf("dist: welcoming rank %d: %w", h.Rank, err)
		}
		c.emit(c.root, "dist-join", map[string]any{"rank": h.Rank, "pid": h.PID, "spawn": c.spawned[h.Rank]})
		return nil
	}
}

// syncWorker pushes the full state to rank r and verifies the restored
// replica's weight CRC against the local one.
func (c *Coordinator) syncWorker(r int, pos train.StepPos, blob []byte) error {
	cx := c.stepCtx(pos)
	if err := c.sendTo(r, cx, msgSync, &syncMsg{Epoch: pos.Epoch, Step: pos.Step, Blob: blob}); err != nil {
		c.failWorker(r, "sync send: "+err.Error())
		return fmt.Errorf("dist: sending sync to rank %d: %w", r, err)
	}
	payload, err := c.rpc(r, cx, msgSync, &c.workers[r].fc.out, msgSyncAck, pos)
	if err != nil {
		c.failWorker(r, "sync: "+err.Error())
		return fmt.Errorf("dist: syncing rank %d: %w", r, err)
	}
	ack, err := decodePosAck(payload)
	if err != nil {
		c.failWorker(r, "sync ack: "+err.Error())
		return fmt.Errorf("dist: rank %d sync ack: %w", r, err)
	}
	c.attachWorkerSnapshot(r, ack.Snap)
	if want := weightCRC(c.method.Net()); ack.WeightCRC != want {
		c.failWorker(r, "sync weight CRC mismatch")
		return fmt.Errorf("dist: rank %d restored weights CRC %08x, coordinator has %08x", r, ack.WeightCRC, want)
	}
	c.workers[r].synced = true
	return nil
}

// attachWorkerSnapshot merges a piggybacked worker registry snapshot
// into the coordinator's registry as rank-labeled families. Telemetry
// must never fail a step, so a corrupt snapshot is counted and dropped.
func (c *Coordinator) attachWorkerSnapshot(r int, snap []byte) {
	if len(snap) == 0 {
		return
	}
	s, err := obs.DecodeSnapshot(snap)
	if err != nil {
		c.opts.Registry.Counter("dist.snapshot_decode_errors").Inc()
		return
	}
	c.opts.Registry.AttachSnapshot("worker", "rank", strconv.Itoa(r), s)
}

// stepError wraps a mid-step worker failure. abort=true means the step
// must be re-run (the failure happened before the reduced gradient was
// applied); abort=false failures (post-apply commit problems) only cost
// the worker.
type stepError struct {
	rank  int
	abort bool
	err   error
}

func (e *stepError) Error() string { return fmt.Sprintf("rank %d: %v", e.rank, e.err) }
func (e *stepError) Unwrap() error { return e.err }

// tryStep runs one complete exchange: gradient requests fan out, shard
// gradients are folded in ascending shard order straight from the reply
// payloads, the commit fans out, and only then does the coordinator
// apply the result itself — its ApplyGrads and weight CRC run beside
// the workers' instead of in front of them. Nothing between the reduced
// gradient and the local apply can fail, so sending first creates no
// state in which a worker has applied a step the coordinator will not.
// Any failure before the reduced gradient exists aborts the step
// (weights untouched anywhere: workers only move on commit, and a
// worker that already computed gradients recomputes them identically on
// the re-run); a failure after it only costs the worker.
func (c *Coordinator) tryStep(pos train.StepPos, x *tensor.Matrix, y []int) (float64, error) {
	cx := c.stepCtx(pos)
	rows := x.Rows
	abort := func(r int, reason string, err error) (float64, error) {
		c.failWorker(r, reason+": "+err.Error())
		return 0, &stepError{rank: r, abort: true, err: err}
	}
	for r := range c.workers {
		lo, hi := workerShards(c.opts.Shards, len(c.workers), r)
		if lo == hi {
			continue
		}
		req := gradRequest{Epoch: pos.Epoch, Step: pos.Step, ShardLo: lo, ShardHi: hi}
		if err := c.sendTo(r, cx, msgGradRequest, &req); err != nil {
			return abort(r, "grad request", err)
		}
	}

	c.red.reset()
	for r := range c.workers {
		lo, hi := workerShards(c.opts.Shards, len(c.workers), r)
		if lo == hi {
			continue
		}
		// The request still sits, encoded, in the connection's send
		// buffer: a retry resends those bytes.
		payload, err := c.rpc(r, cx, msgGradRequest, &c.workers[r].fc.out, msgGradReply, pos)
		if err != nil {
			return abort(r, "grad reply", err)
		}
		if err := c.foldReply(payload, lo, hi, rows); err != nil {
			return abort(r, "grad reply", err)
		}
		c.lap(stageFold)
	}
	if c.red.rows != rows {
		return 0, &stepError{rank: -1, abort: true,
			err: fmt.Errorf("replies cover %d of the batch's %d rows", c.red.rows, rows)}
	}
	loss, grads := c.red.Result(rows)

	c.commit.set(&commit{Epoch: pos.Epoch, Step: pos.Step, Loss: loss, Grads: grads})
	for r := range c.workers {
		if c.workers[r] == nil {
			continue
		}
		if err := c.sendFrame(r, cx, msgCommit, &c.commit); err != nil {
			c.failWorker(r, "commit: "+err.Error())
		}
	}
	c.gc.ApplyGrads(grads)
	want := weightCRC(c.method.Net())
	c.lap(stageApply)

	for r := range c.workers {
		if c.workers[r] == nil {
			continue
		}
		payload, err := c.rpc(r, cx, msgCommit, &c.commit, msgCommitAck, pos)
		if err != nil {
			// The step is already applied locally; a commit failure only
			// costs the worker, which rejoins by checkpoint next step.
			c.failWorker(r, "commit ack: "+err.Error())
			continue
		}
		ack, err := decodePosAck(payload)
		if err != nil {
			c.failWorker(r, "commit ack decode: "+err.Error())
			continue
		}
		c.attachWorkerSnapshot(r, ack.Snap)
		if ack.WeightCRC != want {
			c.opts.Registry.Counter("dist.replica_divergence").Inc()
			c.failWorker(r, fmt.Sprintf("replica diverged: CRC %08x, want %08x", ack.WeightCRC, want))
		}
	}
	c.lap(stageWire)
	return loss, nil
}

// foldReply folds every shard of one gradReply payload — already past
// its frame CRC — into the reducer, checking each against the shard
// range [lo, hi) the rank was asked for.
func (c *Coordinator) foldReply(payload []byte, lo, hi, rows int) error {
	cur := cursor{p: payload}
	_, _, shards := gradReplyHead(&cur)
	for i := 0; i < shards; i++ {
		index, n, loss := shardHead(&cur)
		if cur.err != nil {
			break
		}
		if slo, shi := shardRange(rows, c.opts.Shards, index); index < lo || index >= hi || n != shi-slo {
			return fmt.Errorf("shard %d (%d rows) outside assignment [%d,%d)", index, n, lo, hi)
		}
		if err := c.red.addWire(index, n, rows, loss, &cur); err != nil {
			return err
		}
	}
	if cur.err != nil || len(cur.p) != 0 {
		return fmt.Errorf("grad reply of %d bytes does not hold %d shards", len(payload), shards)
	}
	return nil
}

// rpc awaits the reply to an already-sent request — req is the frame
// that carried it, still encoded — resending it on retryable failures
// (timeout, corrupt frame in either direction) with capped exponential
// backoff plus seeded jitter. Stale frames — replies to earlier
// exchanges still buffered on the connection — are skipped, not errors.
// The returned payload aliases the connection's receive buffer: use it
// before the next recv.
func (c *Coordinator) rpc(r int, cx obs.Ctx, reqType uint8, req *wireFrame, wantType uint8, pos train.StepPos) ([]byte, error) {
	w := c.workers[r]
	retries := 0
	for {
		f, err := w.fc.recv(c.opts.StepTimeout)
		c.lap(stageWire)
		switch {
		case err == binio.ErrFrameCorrupt:
			// The worker's reply arrived corrupted; ask again.
		case isTimeout(err):
			c.opts.Registry.Counter("dist.timeouts").Inc()
			c.emit(cx, "dist-timeout", map[string]any{"rank": r, "epoch": pos.Epoch, "step": pos.Step})
		case err != nil:
			return nil, err
		default:
			if f.Type == msgError {
				e, derr := decodeErrMsg(f.Payload)
				if derr != nil {
					return nil, fmt.Errorf("undecodable error frame: %w", derr)
				}
				if cmpPos(e.Epoch, e.Step, pos) < 0 {
					continue // stale complaint from an aborted exchange
				}
				if e.Code == errRetryable {
					// Our request reached the worker corrupted; resend it.
					break
				}
				return nil, fmt.Errorf("worker error (code %d): %s", e.Code, e.Text)
			}
			epoch, step, perr := peekPos(f.Payload)
			if perr != nil {
				return nil, fmt.Errorf("reply frame too short: %w", perr)
			}
			if d := cmpPos(epoch, step, pos); d < 0 || (d == 0 && typePhase(f.Type) < typePhase(wantType)) {
				continue // stale reply from an earlier exchange at this conn
			} else if d > 0 || f.Type != wantType {
				return nil, fmt.Errorf("expected frame %d for %d/%d, got %d for %d/%d",
					wantType, pos.Epoch, pos.Step, f.Type, epoch, step)
			}
			return f.Payload, nil
		}
		if retries >= c.opts.Retries {
			return nil, fmt.Errorf("rpc gave up after %d retries (last: %v)", retries, err)
		}
		delay := c.backoff(retries)
		retries++
		c.opts.Registry.Counter("dist.retries").Inc()
		c.emit(cx, "dist-retry", map[string]any{
			"rank": r, "epoch": pos.Epoch, "step": pos.Step, "attempt": retries,
			"delay_ms": delay.Milliseconds(),
		})
		time.Sleep(delay)
		if err := c.sendFrame(r, cx, reqType, req); err != nil {
			return nil, fmt.Errorf("resending request: %w", err)
		}
	}
}

// backoff returns the nth retry delay: base·2ⁿ capped at 16·base, plus
// up to one base of seeded jitter.
func (c *Coordinator) backoff(n int) time.Duration {
	d := c.opts.RetryBase << n
	if max := c.opts.RetryBase << 4; d > max {
		d = max
	}
	return d + time.Duration(c.jitter.Float64()*float64(c.opts.RetryBase))
}

// cmpPos orders (epoch, step) against pos: -1 earlier, 0 equal, +1 later.
func cmpPos(epoch, step int, pos train.StepPos) int {
	if epoch != pos.Epoch {
		if epoch < pos.Epoch {
			return -1
		}
		return 1
	}
	if step != pos.Step {
		if step < pos.Step {
			return -1
		}
		return 1
	}
	return 0
}

// typePhase orders reply types within one step's exchange; a same-pos
// reply from an earlier phase (a duplicate grad reply arriving while we
// await the commit ack) is stale, not a protocol error.
func typePhase(t uint8) int {
	switch t {
	case msgSyncAck:
		return 0
	case msgGradReply:
		return 1
	case msgCommitAck:
		return 2
	}
	return 3
}

// sendTo encodes m into rank r's send buffer and sends it.
func (c *Coordinator) sendTo(r int, cx obs.Ctx, typ uint8, m message) error {
	w := c.workers[r]
	if w == nil {
		return fmt.Errorf("dist: rank %d has no connection", r)
	}
	w.fc.out.set(m)
	return c.sendFrame(r, cx, typ, &w.fc.out)
}

// sendFrame writes one encoded frame to rank r, applying any armed
// frame fault: drop (bytes discarded, sequence number consumed), delay,
// or a payload bit-flip the receiver's CRC check will catch.
func (c *Coordinator) sendFrame(r int, cx obs.Ctx, typ uint8, f *wireFrame) error {
	w := c.workers[r]
	if w == nil {
		return fmt.Errorf("dist: rank %d has no connection", r)
	}
	if err := w.fc.seal(f, typ, cx); err != nil {
		return err
	}
	c.lap(stageEncode)
	c.sent[r]++
	n := c.sent[r]
	plan := &c.opts.Fault
	if !c.faultDropDone && plan.DropFrame.matches(r, n) {
		c.faultDropDone = true
		c.emit(cx, "dist-fault", map[string]any{"kind": "drop", "rank": r, "frame": n})
		return nil
	}
	if d := plan.DelayFrame; !c.faultDelayDone && d.matches(r, n) {
		c.faultDelayDone = true
		c.emit(cx, "dist-fault", map[string]any{"kind": "delay", "rank": r, "frame": n, "delay_ms": d.Delay.Milliseconds()})
		time.Sleep(d.Delay)
	}
	corrupt := !c.faultCorruptDone && plan.CorruptFrame.matches(r, n) && len(f.payload()) > 0
	last := &f.buf[len(f.buf)-1]
	if corrupt {
		c.faultCorruptDone = true
		c.emit(cx, "dist-fault", map[string]any{"kind": "corrupt", "rank": r, "frame": n})
		*last ^= 0x01 // flip a payload bit; the worker's CRC check rejects it
	}
	err := w.fc.write(f)
	if corrupt {
		// The buffer outlives this write — a retry resends it, a commit
		// goes on to the other ranks — and the fault is one frame on one
		// link, so the bit goes back.
		*last ^= 0x01
	}
	c.lap(stageWire)
	return err
}
