package main

import "strconv"

// metricDef is one row of the metric table. BENCHMARK.json lists the
// same rows; the package test holds the two together.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// methods are the paper's five training methods in its order (§8.3).
var methods = []string{"standard", "dropout", "adaptive-dropout", "alsh", "mc"}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"epoch_s.standard", "s", "lower", 0.10},
	{"epoch_s.dropout", "s", "lower", 0.10},
	{"epoch_s.adaptive-dropout", "s", "lower", 0.10},
	// ALSH's epoch costs what its active sets cost, and those follow the
	// data: from seed to seed its time spreads 7 % where the others'
	// spreads 2-3 %.
	{"epoch_s.alsh", "s", "lower", 0.20},
	{"epoch_s.mc", "s", "lower", 0.10},
	// Dropout's accuracy sits at chance by design (keep 0.05), so it is
	// checked for finiteness only and is not a metric. The two samplers
	// that are still converging after eight epochs spread 4 % from seed
	// to seed; the other two are at the data's ceiling.
	{"test_acc.standard", "fraction", "higher", 0.03},
	{"test_acc.adaptive-dropout", "fraction", "higher", 0.12},
	{"test_acc.alsh", "fraction", "higher", 0.12},
	{"test_acc.mc", "fraction", "higher", 0.03},
	{"serve_req_per_s", "req/s", "higher", 0.07},
	{"serve_rows_per_s", "rows/s", "higher", 0.10},
	{"serve_p50_us", "us", "lower", 0.10},
	{"serve_p99_us", "us", "lower", 0.25},
	{"dist_steps_per_s", "steps/s", "higher", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run; the layers
// are the repo's packages.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, m := range methods {
		add("core.step_us.p50."+m, "us", "lower")
		add("core.step_us.p99."+m, "us", "lower")
		add("core.forward_share."+m, "share", "lower")
		add("core.backward_share."+m, "share", "lower")
		add("core.alloc_kb_per_step."+m, "kB", "lower")
	}
	add("core.maintain_share.alsh", "share", "lower")
	add("train.self_share", "share", "lower")
	add("train.eval_ms", "ms", "lower")
	add("dataset.generate_s", "s", "lower")
	add("dataset.next_batch_us", "us", "lower")
	for _, k := range []string{"matmul", "matmul_transa", "matmul_transb", "matmul_cols", "matmul_transb_sparse"} {
		add("tensor."+k+"_gflops", "GFLOPS", "higher")
	}
	for i := 0; i < 4; i++ {
		add("nn.layer"+strconv.Itoa(i)+".forward_us", "us", "lower")
		add("nn.layer"+strconv.Itoa(i)+".backward_us", "us", "lower")
	}
	add("nn.infer_us.rows1", "us", "lower")
	add("nn.infer_us.rows32", "us", "lower")
	add("lsh.query_us", "us", "lower")
	add("lsh.update_col_us", "us", "lower")
	add("lsh.rebuild_ms", "ms", "lower")
	add("lsh.candidates_per_query", "count", "lower")
	add("opt.sgd_step_us", "us", "lower")
	add("opt.adam_step_us", "us", "lower")
	add("pool.inline_share", "share", "lower")
	add("serve.handler_us.rows1", "us", "lower")
	add("serve.handler_us.rows32", "us", "lower")
	add("serve.http_overhead_us.rows1", "us", "lower")
	add("serve.codec_share.rows32", "share", "lower")
	add("serve.coalesced_mean", "count", "higher")
	add("serve.coalesced_max", "count", "higher")
	add("serve.swap_ms", "ms", "lower")
	add("serve.load_ms", "ms", "lower")
	add("serve.late_share", "share", "lower")
	add("serve.over_limit_share", "share", "lower")
	add("serve.alloc_kb_per_req", "kB", "lower")
	add("dist.inproc_steps_per_s", "steps/s", "higher")
	add("dist.efficiency", "share", "higher")
	add("dist.step_ms.p50", "ms", "lower")
	add("dist.step_ms.p99", "ms", "lower")
	add("dist.reduce_ms_per_step", "ms", "lower")
	add("dist.grad_mb_per_step", "MB", "lower")
	add("dist.spawn_sync_s", "s", "lower")
	add("dist.retries", "count", "lower")
	add("binio.frame_write_mb_per_s", "MB/s", "higher")
	add("binio.frame_read_mb_per_s", "MB/s", "higher")
	add("bench.trace_overhead_pct", "pct", "lower")
	return out
}

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// workload is one set of inputs. Every run drives the whole system —
// train the five methods, serve a checkpoint, train data-parallel — so
// every run reports every metric; the workload fixes the shapes, and
// with them which layer each stage spends its time in.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Batch and Width are the training batch size and the width of the
	// three hidden layers (784 inputs, 10 classes).
	Batch, Width int
	// TrainN and EvalN size the synthetic MNIST splits.
	TrainN, EvalN int
	// LR is the SGD rate of standard, adaptive-dropout and mc.
	LR float64
	// AccFloor is the test accuracy a method's run must reach: 0.03 under
	// the lowest value over seeds 1-24 of the recorded baseline, except
	// adaptive-dropout, whose low tail is heavy (0.86 and 0.88 where the
	// median is 0.985) and whose floor is 0.10 under. Dropout has none:
	// its accuracy sits at chance by design, so only finite weights are
	// asked of it.
	AccFloor map[string]float64
	// DistBatch and DistN size the data-parallel stage (2 shards).
	DistBatch, DistN int
}

var workloads = []workload{
	{
		Name:  "mb20_w256",
		Why:   "paper Table 4 shape: batch 20, 3x256 hidden; packed GEMM dominates training, 32-row serving and the dist step; lsh and per-call overhead matter little",
		Batch: 20, Width: 256, TrainN: 1000, EvalN: 400, LR: 0.05,
		AccFloor:  map[string]float64{"standard": 0.94, "adaptive-dropout": 0.76, "alsh": 0.94, "mc": 0.94},
		DistBatch: 60, DistN: 1200,
	},
	{
		Name:  "s1_w128",
		Why:   "paper Table 3 shape: batch 1, 3x128 hidden (inside L2); matrix-vector products, per-step allocation, lsh upkeep, JSON+HTTP and dist framing dominate, GEMM throughput matters little",
		Batch: 1, Width: 128, TrainN: 600, EvalN: 400, LR: 0.008,
		AccFloor:  map[string]float64{"standard": 0.94, "adaptive-dropout": 0.78, "alsh": 0.90, "mc": 0.94},
		DistBatch: 8, DistN: 320,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
