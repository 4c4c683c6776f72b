// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload from a seed, for a fixed number of seconds, in one process, and
// prints every metric by name with its unit. The last line of standard
// output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around the calls into each layer and reports the per-layer
// metrics instead. The line before the result carries the environment
// stamp and the sample count behind every metric. See README.md for the
// workloads, the metric definitions and the layer-to-end-to-end mapping.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --slo-ms 10 --trace-tol 0.05 \
//	    --workload serve-read --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json's command fixes --slo-ms and --trace-tol, and its
// run_seconds fixes --seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// sloMs is the latency limit slo_ok_frac counts against.
	sloMs float64
	// traceTol bounds |1 - coverage|, where coverage is the sum of traced
	// stage self-times over the traced total.
	traceTol float64
	// outDir receives the trace files and scratch databases.
	outDir string
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c config) slo() time.Duration { return time.Duration(c.sloMs * float64(time.Millisecond)) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	metrics   map[string]metric
	// samples records how many observations stand behind each metric.
	samples map[string]int
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}, samples: map[string]int{}}
}

// put records a metric and its sample count.
func (r *result) put(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail marks the run incorrect with a reason.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics an untraced run of every workload reports.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"campaign_s", "s", "lower"},
	{"first_answer_s", "s", "lower"},
	{"rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"slo_ok_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
	{"heap_peak_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run of every workload reports.
var perLayer = func() []metricSpec {
	out := make([]metricSpec, 0, len(spanMetrics)+16)
	for _, m := range spanMetrics {
		out = append(out, metricSpec{m.name, m.unit, "lower"})
	}
	return append(out,
		metricSpec{"measure.cells", "count", "higher"},
		metricSpec{"measure.paths_tested", "count", "higher"},
		metricSpec{"docdb.bytes_per_user_byte", "ratio", "lower"},
		metricSpec{"docdb.records_replayed", "count", "lower"},
		metricSpec{"selection.rebuilds", "count", "lower"},
		metricSpec{"selection.folds", "count", "lower"},
		metricSpec{"selection.coalesced", "count", "higher"},
		metricSpec{"cluster.cache_hit_ratio", "ratio", "higher"},
		metricSpec{"cluster.shed", "count", "lower"},
		metricSpec{"cluster.rate_limited", "count", "lower"},
		metricSpec{"load.late_ms", "ms", "lower"},
		metricSpec{"alloc_kb_per_req", "KiB", "lower"},
		metricSpec{"wall.setup_s", "s", "lower"},
		metricSpec{"wall.campaign_s", "s", "lower"},
		metricSpec{"wall.first_answer_s", "s", "lower"},
		metricSpec{"trace.overhead_pct", "%", "lower"},
		metricSpec{"trace.coverage", "ratio", "higher"},
	)
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*result, error){
	"campaign":    runCampaign,
	"serve-read":  func(cfg config) (*result, error) { return runServe(cfg, false) },
	"serve-write": func(cfg config) (*result, error) { return runServe(cfg, true) },
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: campaign, serve-read or serve-write")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.Float64Var(&cfg.sloMs, "slo-ms", 0, "latency limit for slo_ok_frac in ms (required)")
	fs.Float64Var(&cfg.traceTol, "trace-tol", 0, "allowed |1 - coverage| of traced self-times (required)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for trace files and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || cfg.sloMs <= 0 || cfg.traceTol <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (campaign, serve-read, serve-write), --seconds > 0, --slo-ms > 0, --trace-tol > 0 and --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", cfg.workload, p)
	}
	detail := struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Trace    bool           `json:"trace"`
		Env      envStamp       `json:"env"`
		Samples  map[string]int `json:"samples"`
		Problems []string       `json:"problems,omitempty"`
	}{cfg.workload, cfg.seed, cfg.trace, stampEnv(), res.samples, res.problems}
	if err := printJSON(detail); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics}
	if err := printJSON(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
