// Package train drives a core.Method over a dataset and records what the
// paper's experiments report: per-epoch loss and test accuracy, the
// feedforward/backpropagation/maintenance time split of §9.2 and §10.1,
// and the memory-growth figures of §9.4.
package train

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/metrics"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/probe"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// Config controls a training run.
type Config struct {
	// Epochs is the number of passes over the training split (paper: 50).
	Epochs int
	// BatchSize selects the setting: 1 is the paper's stochastic
	// ("S") variant, >1 the mini-batch ("M") variant (paper default 20).
	BatchSize int
	// Seed drives batch shuffling.
	Seed uint64
	// MaxEvalSamples caps how many test samples each evaluation uses
	// (0 = all). Scaled-down experiments use this to keep evaluation off
	// the critical path.
	MaxEvalSamples int
	// RebuildPerEpoch triggers a full hash rebuild between epochs for
	// ALSH-approx (refits the transform scaling); other methods ignore it.
	RebuildPerEpoch bool
	// TrackMemory samples runtime.MemStats around every epoch. It forces
	// a GC per epoch, so leave it off in time-critical runs.
	TrackMemory bool
	// CheckpointPath, when set, saves the network to this file whenever
	// an epoch achieves a new best test accuracy.
	CheckpointPath string
	// EarlyStopPatience, when positive, stops training after this many
	// consecutive epochs without a new best validation accuracy
	// (evaluated on the dataset's validation split, §8.2). Zero disables
	// early stopping.
	EarlyStopPatience int
	// StatePath, when set, enables full-state checkpointing: every
	// CheckpointEvery epochs the trainer atomically writes a resumable
	// snapshot (weights, optimizer state, RNG streams, method state,
	// History) to this file, and writes it once more when the run ends
	// or is cancelled. Resume continues a run from such a file.
	StatePath string
	// CheckpointEvery is the epoch interval between full-state snapshots
	// (default 1 when StatePath is set).
	CheckpointEvery int
	// MaxRetries bounds divergence recovery: when an epoch produces a
	// non-finite loss, the trainer rolls back to the last good snapshot,
	// multiplies the learning rate by LRDecay, and re-runs the epoch —
	// up to MaxRetries rollbacks before recording Diverged. Zero
	// disables recovery (a non-finite loss immediately records
	// Diverged, the historical behavior).
	MaxRetries int
	// LRDecay is the learning-rate multiplier applied on each divergence
	// rollback (default 0.5). It takes effect when the optimizer
	// implements opt.LRAdjuster; otherwise rollbacks retry at the same
	// rate until the budget runs out.
	LRDecay float64
	// Journal, when set, receives the run's lifecycle as structured JSONL
	// events: run-start, resume, epoch, divergence, rollback, checkpoint,
	// early-stop, cancel, step-fault, probe, run-end. Journal write
	// failures are sticky on the Journal and never interrupt training.
	Journal *obs.Journal
	// Registry receives the run's live gauges (train.epoch, train.loss,
	// train.test_acc, the probe readings) and is snapshotted into the
	// run-end event. Defaults to obs.Default, which the -pprof-addr
	// /metrics endpoint serves.
	Registry *obs.Registry
	// ProbeEvery, when positive, runs the §7 error-compounding probe
	// every that many batches: the method's approximate forward and the
	// exact forward are compared on a fixed minibatch and the per-layer
	// relative errors journaled (event "probe") next to the Theorem 7.2
	// prediction. The probe draws from its own RNG stream, so the
	// trained weights are identical with the probe on or off. Methods
	// without an approximate forward (standard) ignore it.
	ProbeEvery int
	// ProbeSamples sizes the probe minibatch, taken from the head of the
	// training split (default 16).
	ProbeSamples int
	// Stepper, when set, replaces the method's local Step for every
	// batch: the trainer hands each batch (with its position and a
	// state-capture hook) to the stepper and records the loss it
	// returns. Distributed data-parallel training (internal/dist) plugs
	// its coordinator in here; everything else about the run — shuffling,
	// divergence recovery, checkpoints, telemetry — is unchanged.
	Stepper BatchStepper
}

// StepPos identifies one optimizer step within a run.
type StepPos struct {
	// Epoch is the 1-based in-flight epoch.
	Epoch int
	// Step is the 0-based batch index within the epoch.
	Step int
}

// StateFunc captures a full-state checkpoint of the run at the current
// position: weights, optimizer state, RNG stream, and the in-flight
// epoch's batch permutation. A BatchStepper calls it to build the sync
// blob a rejoining worker replays from.
type StateFunc func() (*Checkpoint, error)

// BatchStepper is the trainer's gradient export/import seam. StepBatch
// must leave the method's network updated exactly as a local Step on the
// same batch would (the distributed coordinator guarantees this via its
// fixed-order reduce). The batch matrix and labels are only valid for
// the duration of the call. A non-nil error means the batch was not
// applied and aborts the run.
type BatchStepper interface {
	StepBatch(pos StepPos, x *tensor.Matrix, y []int, state StateFunc) (float64, error)
}

func (c *Config) setDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.StatePath != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.LRDecay <= 0 || c.LRDecay >= 1 {
		c.LRDecay = 0.5
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	if c.ProbeSamples <= 0 {
		c.ProbeSamples = 16
	}
}

// EpochStats records one epoch's outcomes.
type EpochStats struct {
	// Epoch is 1-based.
	Epoch int
	// TrainLoss is the mean per-batch loss the method observed, averaged
	// over Batches batches.
	TrainLoss float64
	// Batches is the number of batches whose loss entered TrainLoss. On
	// a fully processed epoch it equals the dataset's batch count; on a
	// diverged epoch it counts only the pre-divergence batches, so a
	// partial average is distinguishable from a full one.
	Batches int
	// TestAccuracy is exact-forward accuracy on the (possibly capped)
	// test split. On a terminally diverged epoch the weights are
	// non-finite and evaluation is skipped: the value is NaN.
	TestAccuracy float64
	// ValAccuracy is accuracy on the validation split (only populated
	// when early stopping is enabled; NaN on a terminally diverged
	// epoch).
	ValAccuracy float64
	// Timing is this epoch's phase split.
	Timing core.Timing
	// Duration is the wall-clock epoch time including evaluation.
	Duration time.Duration
	// AllocBytes is the heap allocation delta over the epoch
	// (TrackMemory only).
	AllocBytes uint64
	// HeapBytes is the live-heap size after the epoch (TrackMemory only).
	HeapBytes uint64
}

// History is a full run's record.
type History struct {
	Method string
	Epochs []EpochStats
	// Diverged reports that training produced a non-finite loss and was
	// stopped early. The paper's Dropout-S configuration (keep rate 0.05
	// with 1/p rescaling) genuinely explodes on deeper networks; the
	// harness records the collapse instead of failing, mirroring the
	// near-random accuracies Table 2 reports for it.
	Diverged bool
	// EarlyStopped reports that validation-based early stopping ended
	// the run before the configured epoch count.
	EarlyStopped bool
}

// Final returns the last epoch's stats.
func (h *History) Final() EpochStats {
	if len(h.Epochs) == 0 {
		return EpochStats{}
	}
	return h.Epochs[len(h.Epochs)-1]
}

// BestAccuracy returns the highest test accuracy seen.
func (h *History) BestAccuracy() float64 {
	best := 0.0
	for _, e := range h.Epochs {
		if e.TestAccuracy > best {
			best = e.TestAccuracy
		}
	}
	return best
}

// TotalTiming sums the phase splits across epochs.
func (h *History) TotalTiming() core.Timing {
	var t core.Timing
	for _, e := range h.Epochs {
		t.Forward += e.Timing.Forward
		t.Backward += e.Timing.Backward
		t.Maintain += e.Timing.Maintain
	}
	return t
}

// Trainer runs a method over a dataset.
type Trainer struct {
	method core.Method
	data   *dataset.Dataset
	cfg    Config
}

// New builds a trainer. The method's network must match the dataset's
// input dimensionality and class count.
func New(m core.Method, ds *dataset.Dataset, cfg Config) (*Trainer, error) {
	cfg.setDefaults()
	if m == nil || ds == nil {
		return nil, fmt.Errorf("train: method and dataset are required")
	}
	in := m.Net().Layers[0].FanIn()
	if in != ds.Train.X.Cols {
		return nil, fmt.Errorf("train: network expects %d inputs, dataset has %d", in, ds.Train.X.Cols)
	}
	out := m.Net().Layers[len(m.Net().Layers)-1].FanOut()
	if out != ds.Spec.Classes {
		return nil, fmt.Errorf("train: network has %d outputs, dataset has %d classes", out, ds.Spec.Classes)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("train: batch size %d", cfg.BatchSize)
	}
	return &Trainer{method: m, data: ds, cfg: cfg}, nil
}

// runState is the trainer's mutable position in a run — everything
// beyond the weights, optimizer, RNG, and History that a checkpoint must
// carry for the run to continue deterministically.
type runState struct {
	epoch        int // completed epochs
	retries      int // divergence rollbacks consumed
	bestAcc      float64
	bestVal      float64
	sinceBestVal int
}

// Run trains for the configured epochs and returns the history.
func (t *Trainer) Run() (*History, error) {
	return t.RunContext(context.Background())
}

// RunContext is Run with cancellation: when ctx is cancelled the trainer
// stops at the next batch boundary, writes the last good snapshot to
// StatePath (when configured), and returns the history so far together
// with ctx's error. Progress past the last completed epoch is discarded —
// snapshots are only taken at epoch boundaries, so a resumed run replays
// the interrupted epoch from its start.
func (t *Trainer) RunContext(ctx context.Context) (*History, error) {
	return t.run(ctx, nil)
}

// Resume continues a run from a full-state checkpoint written by a
// trainer with the same method, architecture, optimizer, and seed. The
// continuation is byte-for-byte deterministic: training N epochs in one
// process and N epochs across a checkpoint/resume boundary produce
// identical weights, optimizer state, and History.
func (t *Trainer) Resume(path string) (*History, error) {
	return t.ResumeContext(context.Background(), path)
}

// ResumeContext is Resume with cancellation (see RunContext). When the
// primary checkpoint is missing or corrupt, the resume falls back to the
// last-known-good .prev backup and journals a checkpoint-fallback event;
// the run then replays the (at most CheckpointEvery) epochs between the
// two generations.
func (t *Trainer) ResumeContext(ctx context.Context, path string) (*History, error) {
	ck, primaryErr, err := ReadCheckpointFileFallback(path)
	if err != nil {
		return nil, err
	}
	if primaryErr != nil {
		t.emit("checkpoint-fallback", map[string]any{
			"path":   path,
			"backup": CheckpointBackupPath(path),
			"epoch":  ck.Epoch,
			"reason": primaryErr.Error(),
		})
	}
	return t.run(ctx, ck)
}

func (t *Trainer) run(ctx context.Context, start *Checkpoint) (*History, error) {
	g := rng.New(t.cfg.Seed)
	batcher := dataset.NewBatcher(t.data.Train, t.cfg.BatchSize, g)
	hist := &History{Method: t.method.Name()}
	rs := runState{bestAcc: -1, bestVal: -1}
	if start != nil {
		// restoreLR: a resumed run continues at the (possibly decayed)
		// rate the checkpoint recorded.
		if err := t.restore(start, g, batcher, hist, &rs, true); err != nil {
			return nil, err
		}
	}
	t.emitRunStart(start != nil)
	if start != nil {
		t.emit("resume", map[string]any{"epoch": rs.epoch, "retries": rs.retries})
	}

	evalX, evalY := t.evalSet()
	pr := t.buildProbe()
	// Live-run gauges, resolved once so the per-batch updates are plain
	// atomic stores. They mirror the journal into the process registry,
	// which the /metrics endpoint serves while the run is in flight.
	gEpoch := t.cfg.Registry.Gauge("train.epoch")
	gLoss := t.cfg.Registry.Gauge("train.loss")
	gAcc := t.cfg.Registry.Gauge("train.test_acc")
	cBatches := t.cfg.Registry.Counter("train.batches")
	useVal := t.cfg.EarlyStopPatience > 0 && t.data.Val != nil && t.data.Val.Len() > 0
	// Snapshots are needed for divergence rollback and for StatePath
	// persistence; without either, skip the capture work entirely.
	wantSnapshots := t.cfg.MaxRetries > 0 || t.cfg.StatePath != ""
	lastGood := start
	if lastGood == nil && wantSnapshots {
		var err error
		if lastGood, err = t.capture(g, batcher, hist, &rs); err != nil {
			return hist, fmt.Errorf("train: initial snapshot: %w", err)
		}
	}
	// persist writes the last good snapshot; used at the end of the run
	// and on every abnormal exit so progress is never lost.
	persist := func() error {
		if t.cfg.StatePath == "" || lastGood == nil {
			return nil
		}
		sp := trace.Active().Begin("checkpoint", "write")
		err := lastGood.WriteFile(t.cfg.StatePath)
		sp.End()
		if err != nil {
			return err
		}
		t.emit("checkpoint", map[string]any{
			"kind": "state", "path": t.cfg.StatePath, "epoch": lastGood.Epoch,
		})
		return nil
	}

	var ms runtime.MemStats
	epoch := rs.epoch
	for epoch < t.cfg.Epochs {
		epoch++
		gEpoch.Set(float64(epoch))
		var allocBefore uint64
		if t.cfg.TrackMemory {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			allocBefore = ms.TotalAlloc
		}
		t.method.ResetTiming()
		startT := time.Now() //lint:ignore wall-clock epoch-duration telemetry for history and journal; never feeds training state

		batcher.Reset()
		var lossSum float64
		batches := 0
		diverged := false
		for {
			select {
			case <-ctx.Done():
				t.emit("cancel", map[string]any{"epoch": epoch, "batches": batches})
				if perr := persist(); perr != nil {
					t.emitRunEnd(hist, "fault")
					return hist, fmt.Errorf("train: checkpoint on cancel: %w (after %w)", perr, ctx.Err())
				}
				t.emitRunEnd(hist, "cancelled")
				return hist, ctx.Err()
			default:
			}
			x, y := batcher.Next()
			if x == nil {
				break
			}
			loss, err := t.stepAt(StepPos{Epoch: epoch, Step: batches}, x, y, func() (*Checkpoint, error) {
				return t.capture(g, batcher, hist, &rs)
			})
			if err != nil {
				// A contained worker fault: the batch was not applied.
				// Preserve progress, then surface the fault.
				t.emit("step-fault", map[string]any{"epoch": epoch, "batches": batches, "error": err.Error()})
				if perr := persist(); perr != nil {
					t.emitRunEnd(hist, "fault")
					return hist, fmt.Errorf("train: checkpoint after step fault: %w (after %w)", perr, err)
				}
				t.emitRunEnd(hist, "fault")
				return hist, fmt.Errorf("train: epoch %d: %w", epoch, err)
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				diverged = true
				break
			}
			lossSum += loss
			batches++
			gLoss.Set(loss)
			cBatches.Inc()
			if m, ok := pr.Tick(); ok {
				t.emitProbe(epoch, m)
			}
		}
		if t.cfg.RebuildPerEpoch {
			t.method.RebuildIndexes()
		}

		if diverged {
			t.emit("divergence", map[string]any{"epoch": epoch, "batches": batches, "retries": rs.retries})
		}
		if diverged && rs.retries < t.cfg.MaxRetries && lastGood != nil {
			// Divergence recovery: roll the run back to the last good
			// epoch boundary, decay the learning rate, and re-run. The
			// learning rate is intentionally NOT restored from the
			// snapshot — the decay is the thing that changes the retry's
			// trajectory.
			// The retry counter survives the rollback: restore() resets
			// rs to the snapshot (whose retry count predates this
			// divergence), so reapply the increment afterwards.
			retries := rs.retries + 1
			if err := t.restore(lastGood, g, batcher, hist, &rs, false); err != nil {
				return hist, fmt.Errorf("train: divergence rollback: %w", err)
			}
			rs.retries = retries
			t.decayLR()
			t.emit("rollback", map[string]any{"to_epoch": rs.epoch, "retry": retries, "lr": t.currentLR()})
			epoch = rs.epoch
			continue
		}

		stats := EpochStats{
			Epoch:    epoch,
			Batches:  batches,
			Timing:   t.method.Timing(),
			Duration: time.Since(startT), //lint:ignore wall-clock epoch-duration telemetry for history and journal; never feeds training state
		}
		if batches > 0 {
			stats.TrainLoss = lossSum / float64(batches)
		} else {
			stats.TrainLoss = math.Inf(1)
		}
		if t.cfg.TrackMemory {
			runtime.ReadMemStats(&ms)
			stats.AllocBytes = ms.TotalAlloc - allocBefore
			stats.HeapBytes = ms.HeapAlloc
		}
		if diverged {
			// Terminal divergence (retry budget exhausted): the weights
			// are non-finite, so a test-set forward pass would only
			// record garbage accuracy. Mark the epoch with NaN instead of
			// evaluating.
			stats.TestAccuracy = math.NaN()
			if useVal {
				stats.ValAccuracy = math.NaN()
			}
			hist.Diverged = true
			hist.Epochs = append(hist.Epochs, stats)
			t.emitEpoch(stats, true, useVal)
			break
		}
		stats.TestAccuracy = metrics.Accuracy(evalY, t.method.PredictBatch(evalX))
		gAcc.Set(stats.TestAccuracy)
		if t.cfg.CheckpointPath != "" && stats.TestAccuracy > rs.bestAcc {
			rs.bestAcc = stats.TestAccuracy
			if err := t.method.Net().SaveFile(t.cfg.CheckpointPath); err != nil {
				return hist, fmt.Errorf("train: checkpoint: %w", err)
			}
			t.emit("checkpoint", map[string]any{
				"kind": "best-model", "path": t.cfg.CheckpointPath, "epoch": epoch, "test_acc": stats.TestAccuracy,
			})
		}
		if useVal {
			stats.ValAccuracy = metrics.Accuracy(t.data.Val.Y, t.method.PredictBatch(t.data.Val.X))
		}
		hist.Epochs = append(hist.Epochs, stats)
		t.emitEpoch(stats, false, useVal)
		if hist.Diverged {
			// A resumed checkpoint can carry a pre-existing Diverged flag;
			// record the epoch, then stop as the original run would have.
			break
		}
		if useVal {
			if stats.ValAccuracy > rs.bestVal {
				rs.bestVal = stats.ValAccuracy
				rs.sinceBestVal = 0
			} else {
				rs.sinceBestVal++
				if rs.sinceBestVal >= t.cfg.EarlyStopPatience {
					hist.EarlyStopped = true
					t.emit("early-stop", map[string]any{"epoch": epoch, "patience": t.cfg.EarlyStopPatience})
				}
			}
		}
		rs.epoch = epoch
		if wantSnapshots {
			var err error
			if lastGood, err = t.capture(g, batcher, hist, &rs); err != nil {
				return hist, fmt.Errorf("train: snapshot after epoch %d: %w", epoch, err)
			}
			if t.cfg.StatePath != "" && epoch%t.cfg.CheckpointEvery == 0 {
				if err := persist(); err != nil {
					return hist, err
				}
			}
		}
		if hist.EarlyStopped {
			break
		}
	}
	if err := persist(); err != nil {
		t.emitRunEnd(hist, "fault")
		return hist, err
	}
	t.emitRunEnd(hist, "completed")
	return hist, nil
}

// emit journals one event when a journal is configured. Journal errors
// are sticky on the Journal itself; telemetry never interrupts training.
func (t *Trainer) emit(ev string, fields map[string]any) {
	if t.cfg.Journal != nil {
		t.cfg.Journal.Emit(ev, fields)
	}
}

// emitRunStart records the run configuration: method, architecture,
// optimizer, and the knobs that shape the trajectory.
func (t *Trainer) emitRunStart(resumed bool) {
	if t.cfg.Journal == nil {
		return
	}
	net := t.method.Net()
	arch := make([]int, 0, len(net.Layers)+1)
	arch = append(arch, net.Layers[0].FanIn())
	for _, l := range net.Layers {
		arch = append(arch, l.FanOut())
	}
	fields := map[string]any{
		"method":      t.method.Name(),
		"arch":        arch,
		"epochs":      t.cfg.Epochs,
		"batch_size":  t.cfg.BatchSize,
		"seed":        t.cfg.Seed,
		"max_retries": t.cfg.MaxRetries,
		"resumed":     resumed,
	}
	o := t.method.Optimizer()
	fields["optimizer"] = o.Name()
	if adj, ok := o.(opt.LRAdjuster); ok {
		fields["lr"] = adj.LearningRate()
	}
	t.cfg.Journal.Emit("run-start", fields)
}

// emitEpoch records one epoch's stats, including the method's sampling
// diagnostics when it exposes them.
func (t *Trainer) emitEpoch(stats EpochStats, diverged, useVal bool) {
	if t.cfg.Journal == nil {
		return
	}
	fields := map[string]any{
		"epoch":       stats.Epoch,
		"train_loss":  stats.TrainLoss,
		"batches":     stats.Batches,
		"test_acc":    stats.TestAccuracy,
		"diverged":    diverged,
		"forward_ns":  int64(stats.Timing.Forward),
		"backward_ns": int64(stats.Timing.Backward),
		"maintain_ns": int64(stats.Timing.Maintain),
		"duration_ns": int64(stats.Duration),
	}
	if useVal {
		fields["val_acc"] = stats.ValAccuracy
	}
	if t.cfg.TrackMemory {
		fields["alloc_bytes"] = stats.AllocBytes
		fields["heap_bytes"] = stats.HeapBytes
	}
	if s := t.method.SamplingSnapshot(); s != nil {
		fields["sampling"] = s
	}
	t.cfg.Journal.Emit("epoch", fields)
}

// emitRunEnd closes the journal lifecycle with the run outcome and a
// snapshot of the process-wide metrics registry (pool submission
// counters and any other instrumented subsystem).
func (t *Trainer) emitRunEnd(hist *History, status string) {
	if t.cfg.Journal == nil {
		return
	}
	fields := map[string]any{
		"status":        status,
		"epochs":        len(hist.Epochs),
		"diverged":      hist.Diverged,
		"early_stopped": hist.EarlyStopped,
		"best_acc":      hist.BestAccuracy(),
	}
	if t.cfg.Registry != nil {
		fields["metrics"] = t.cfg.Registry.Snapshot()
	}
	t.cfg.Journal.Emit("run-end", fields)
}

// buildProbe assembles the error-compounding probe when configured: a
// fixed minibatch from the head of the training split, compared every
// ProbeEvery batches. Returns nil (the no-op probe) when disabled or
// when the method has no approximate forward pass to measure.
func (t *Trainer) buildProbe() *probe.Probe {
	if t.cfg.ProbeEvery <= 0 {
		return nil
	}
	n := t.cfg.ProbeSamples
	if n > t.data.Train.Len() {
		n = t.data.Train.Len()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sub := t.data.Train.Subset(idx)
	// The probe's RNG stream is derived from — but distinct from — the
	// run seed, so probing never consumes the training stream.
	pr := probe.New(t.method, sub.X, t.cfg.ProbeEvery, t.cfg.Seed^0x9e3779b97f4a7c15)
	if pr == nil {
		t.emit("probe-unsupported", map[string]any{"method": t.method.Name()})
	}
	return pr
}

// emitProbe journals one probe measurement and mirrors its headline
// numbers into the registry gauges so /metrics shows the current
// error-compounding state.
func (t *Trainer) emitProbe(epoch int, m *probe.Measurement) {
	reg := t.cfg.Registry
	reg.Gauge("probe.growth").Set(m.Growth)
	reg.Gauge("probe.mean_c").Set(m.MeanC)
	reg.Gauge("probe.output_rel_err").Set(m.RelErr[len(m.RelErr)-1])
	fields := map[string]any{
		"epoch":     epoch,
		"batch":     m.Batch,
		"rel_err":   m.RelErr,
		"err_ratio": m.ErrRatio,
		"mean_c":    m.MeanC,
		"growth":    m.Growth,
	}
	if len(m.Theory) > 0 {
		fields["theory"] = m.Theory
	}
	t.emit("probe", fields)
}

// currentLR reports the optimizer's learning rate, or nil when the
// optimizer's rate is not adjustable.
func (t *Trainer) currentLR() any {
	if adj, ok := t.method.Optimizer().(opt.LRAdjuster); ok {
		return adj.LearningRate()
	}
	return nil
}

// stepAt trains on one batch: through the configured BatchStepper when
// one is set, otherwise locally on the method's error-aware path.
func (t *Trainer) stepAt(pos StepPos, x *tensor.Matrix, y []int, state StateFunc) (float64, error) {
	if t.cfg.Stepper != nil {
		return t.cfg.Stepper.StepBatch(pos, x, y, state)
	}
	return t.method.TryStep(x, y)
}

// decayLR multiplies the learning rate by the configured decay factor.
// It reports whether the optimizer supported the adjustment.
func (t *Trainer) decayLR() bool {
	adj, ok := t.method.Optimizer().(opt.LRAdjuster)
	if !ok {
		return false
	}
	adj.SetLearningRate(adj.LearningRate() * t.cfg.LRDecay)
	return true
}

// capture snapshots the complete run state at an epoch boundary.
func (t *Trainer) capture(g *rng.RNG, batcher *dataset.Batcher, hist *History, rs *runState) (*Checkpoint, error) {
	defer trace.Active().Begin("checkpoint", "capture").End()
	var netBuf bytes.Buffer
	if err := t.method.Net().Save(&netBuf); err != nil {
		return nil, fmt.Errorf("serializing network: %w", err)
	}
	ck := &Checkpoint{
		Epoch:        rs.epoch,
		Retries:      rs.retries,
		BestAcc:      rs.bestAcc,
		BestVal:      rs.bestVal,
		SinceBestVal: rs.sinceBestVal,
		History: History{
			Method:       hist.Method,
			Diverged:     hist.Diverged,
			EarlyStopped: hist.EarlyStopped,
			Epochs:       append([]EpochStats(nil), hist.Epochs...),
		},
		RNGState:   g.Save(),
		BatchOrder: batcher.Order(),
		NetBlob:    netBuf.Bytes(),
		MethodName: t.method.Name(),
	}
	o := t.method.Optimizer()
	ck.OptimizerName = o.Name()
	if ss, ok := o.(opt.StateSaver); ok {
		var b bytes.Buffer
		if err := ss.SaveState(&b); err != nil {
			return nil, fmt.Errorf("serializing %s state: %w", o.Name(), err)
		}
		ck.OptimizerState = b.Bytes()
	}
	if adj, ok := o.(opt.LRAdjuster); ok {
		ck.HasLR = true
		ck.LR = adj.LearningRate()
	}
	var b bytes.Buffer
	if err := t.method.SaveState(&b); err != nil {
		return nil, fmt.Errorf("serializing method state: %w", err)
	}
	ck.MethodState = b.Bytes()
	return ck, nil
}

// restore re-establishes a snapshot: weights in place (preserving layer
// identity — hash indexes and optimizer state key off them), optimizer
// accumulators, method run-time state, RNG position, history, and run
// counters. restoreLR additionally restores the recorded learning rate;
// divergence rollbacks pass false so their decay sticks.
func (t *Trainer) restore(ck *Checkpoint, g *rng.RNG, batcher *dataset.Batcher, hist *History, rs *runState, restoreLR bool) error {
	if ck.MethodName != "" && ck.MethodName != t.method.Name() {
		return fmt.Errorf("train: checkpoint was taken with method %q, trainer runs %q", ck.MethodName, t.method.Name())
	}
	net, err := nn.Load(bytes.NewReader(ck.NetBlob))
	if err != nil {
		return fmt.Errorf("train: checkpoint network: %w", err)
	}
	cur := t.method.Net()
	if len(net.Layers) != len(cur.Layers) {
		return fmt.Errorf("train: checkpoint has %d layers, network has %d", len(net.Layers), len(cur.Layers))
	}
	for i, l := range net.Layers {
		curL := cur.Layers[i]
		if l.W.Rows != curL.W.Rows || l.W.Cols != curL.W.Cols {
			return fmt.Errorf("train: checkpoint layer %d is %dx%d, network wants %dx%d",
				i, l.W.Rows, l.W.Cols, curL.W.Rows, curL.W.Cols)
		}
		copy(curL.W.Data, l.W.Data)
		copy(curL.B, l.B)
	}
	o := t.method.Optimizer()
	if ck.OptimizerName != "" && o.Name() != ck.OptimizerName {
		return fmt.Errorf("train: checkpoint was taken with optimizer %q, trainer uses %q", ck.OptimizerName, o.Name())
	}
	if ss, ok := o.(opt.StateSaver); ok {
		if err := ss.LoadState(bytes.NewReader(ck.OptimizerState)); err != nil {
			return fmt.Errorf("train: restoring %s state: %w", o.Name(), err)
		}
	} else if len(ck.OptimizerState) > 0 {
		return fmt.Errorf("train: checkpoint carries %s state but the optimizer cannot load it", ck.OptimizerName)
	}
	if restoreLR && ck.HasLR {
		if adj, ok := o.(opt.LRAdjuster); ok {
			adj.SetLearningRate(ck.LR)
		}
	}
	// Weights are restored above, so the method's loader, which rebuilds
	// weight-derived structures (hash indexes), sees the right data.
	if err := t.method.LoadState(bytes.NewReader(ck.MethodState)); err != nil {
		return fmt.Errorf("train: restoring method state: %w", err)
	}
	if err := g.Restore(ck.RNGState); err != nil {
		return fmt.Errorf("train: checkpoint rng: %w", err)
	}
	if err := batcher.SetOrder(ck.BatchOrder); err != nil {
		return fmt.Errorf("train: checkpoint batch order: %w", err)
	}
	hist.Method = ck.History.Method
	hist.Diverged = ck.History.Diverged
	hist.EarlyStopped = ck.History.EarlyStopped
	hist.Epochs = append(hist.Epochs[:0], ck.History.Epochs...)
	rs.epoch = ck.Epoch
	rs.retries = ck.Retries
	rs.bestAcc = ck.BestAcc
	rs.bestVal = ck.BestVal
	rs.sinceBestVal = ck.SinceBestVal
	return nil
}

// evalSet returns the capped test split used for per-epoch accuracy.
func (t *Trainer) evalSet() (*tensor.Matrix, []int) {
	test := t.data.Test
	if t.cfg.MaxEvalSamples > 0 && test.Len() > t.cfg.MaxEvalSamples {
		idx := make([]int, t.cfg.MaxEvalSamples)
		for i := range idx {
			idx[i] = i
		}
		sub := test.Subset(idx)
		return sub.X, sub.Y
	}
	return test.X, test.Y
}

// Confusion evaluates a method's network on a split and returns the full
// confusion matrix (the Figure 3 artifact). maxSamples caps the rows used
// (0 = all).
func Confusion(m core.Method, s *dataset.Split, classes, maxSamples int) *metrics.ConfusionMatrix {
	n := s.Len()
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sub := s.Subset(idx)
	cm := metrics.NewConfusionMatrix(classes)
	cm.AddBatch(sub.Y, m.PredictBatch(sub.X))
	return cm
}
