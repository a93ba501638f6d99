package bench

import (
	"fmt"

	"samplednn/internal/work"
)

func init() {
	register(Experiment{
		ID:    "work-model",
		Title: "§4/§11: analytic MAC-count model vs measured step time per method",
		Run:   runWorkModel,
	})
}

// runWorkModel compares the analytic per-step cost model (the Θ-claims
// of §4, and a deterministic energy proxy per §11's future-work
// direction) against measured per-epoch wall-clock for each method at
// the experiment scale's architecture.
func runWorkModel(s Scale) (*Result, error) {
	cfg := settingsFor(s)
	res := &Result{
		ID:       "work-model",
		Title:    "Predicted MACs per step vs measured epoch time, MNIST, 3 hidden layers",
		PaperRef: "paper §4: exact training is Θ(n²)/layer; sampling replaces one factor n by the sample size",
		Columns:  []string{"method", "batch", "MACs/step", "predicted speedup", "epoch time", "measured speedup"},
	}

	arch := work.MLPArch(784, cfg.units, 3, 10)
	type row struct {
		label, name string
		batch       int
		cost        work.Cost
	}
	rows := []row{
		{"Standard-M", "standard", cfg.batch, work.Standard(arch, cfg.batch)},
		{"Dropout-S", "dropout", 1, work.ColumnSampled(arch, 1, 0.05, 0, 0, 0)},
		{"ALSH", "alsh", 1, work.ColumnSampled(arch, 1, 0.1, cfg.alshK, cfg.alshL, 3)},
		{"MC-M", "mc", cfg.batch, work.RowSampled(arch, cfg.batch, cfg.mcK)},
	}
	// Baselines for speedup: the exact method at the same batch size.
	exactAt := map[int]work.Cost{
		1:         work.Standard(arch, 1),
		cfg.batch: work.Standard(arch, cfg.batch),
	}

	var baseTime = map[int]float64{}
	for bi, batch := range []int{1, cfg.batch} {
		out, err := run(runSpec{dataset: "mnist", method: "standard", depth: 3, batch: batch, seed: uint64(8800 + bi)}, s)
		if err != nil {
			return nil, err
		}
		baseTime[batch] = out.hist.TotalTiming().Total().Seconds() / float64(len(out.hist.Epochs))
	}

	for ri, r := range rows {
		out, err := run(runSpec{dataset: "mnist", method: r.name, depth: 3, batch: r.batch, seed: uint64(8900 + ri)}, s)
		if err != nil {
			return nil, fmt.Errorf("work-model %s: %w", r.label, err)
		}
		// Normalize MACs per sample so batch sizes compare.
		perSample := float64(r.cost.Total()) / float64(r.batch)
		exactPerSample := float64(exactAt[r.batch].Total()) / float64(r.batch)
		epoch := out.hist.TotalTiming().Total().Seconds() / float64(len(out.hist.Epochs))
		measured := baseTime[r.batch] / epoch
		if snap := out.method.SamplingSnapshot(); snap != nil {
			// Re-evaluate the ALSH row's prediction at the realized
			// active fraction.
			frac := snap.ActiveFraction
			if frac > 0 {
				c := work.ColumnSampled(arch, 1, frac, cfg.alshK, cfg.alshL, 3)
				perSample = float64(c.Total())
			}
		}
		res.Rows = append(res.Rows, []string{
			r.label, fmt.Sprint(r.batch),
			fmt.Sprintf("%.0f", perSample),
			fmt.Sprintf("%.2f", exactPerSample/perSample),
			fmt.Sprintf("%.3fs", epoch),
			fmt.Sprintf("%.2f", measured),
		})
	}
	res.Notes = append(res.Notes,
		"predicted and measured speedups should agree in ordering; constants differ (memory traffic, §9.4)")
	return res, nil
}
