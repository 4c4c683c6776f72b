// Command benchjson runs a benchmark suite and records the results in a
// JSON trajectory file, so successive PRs can show measured deltas instead
// of asserted ones (see docs/DOCDB.md, "Benchmark methodology"). It
// defaults to the docdb query-engine suite (BENCH_docdb.json); -bench,
// -pkg and -out retarget it at any other suite — the selection engine's
// serving benchmarks record their trajectory (see docs/SERVING.md) with:
//
//	go run ./cmd/benchjson -label after -bench BenchmarkServing \
//	    -pkg ./internal/selection -out BENCH_serving.json
//
// and the path-discovery suite (see docs/PATHDISC.md) records its
// AS-count-labelled trajectory with:
//
//	go run ./cmd/benchjson -label after -bench BenchmarkPathDisc \
//	    -pkg . -out BENCH_pathdisc.json
//
// Usage:
//
//	go run ./cmd/benchjson -label after            # run + record
//	go run ./cmd/benchjson -label pr4 -benchtime 2s
//	go run ./cmd/benchjson -parse out.txt -label x # record a saved run
//	go run ./cmd/benchjson -label x -machine "Xeon, 2 vCPU"  # name the machine
//
// Each invocation replaces the named label in the -out file and leaves
// every other label untouched, so "before" numbers captured at the start of
// a PR survive the "after" run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed "BenchmarkX-8  N  ns/op ..." line.
type benchResult struct {
	Name    string  `json:"name"`
	Iters   int64   `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
	// Backend is the docdb storage backend a "backend=<name>" sub-benchmark
	// ran against (BenchmarkDocDBInsert/backend=segment/n=100k → "segment");
	// empty for backend-independent benchmarks.
	Backend string `json:"backend,omitempty"`
	// ASes is the topology size an "ases=<n>" sub-benchmark ran against
	// (BenchmarkPathDiscDiscover/ases=1000 → 1000, the BENCH_pathdisc.json
	// trajectory); 0 for size-independent benchmarks.
	ASes int `json:"as_count,omitempty"`
	// K is the path-set size of a "k=<n>" sub-benchmark
	// (BenchmarkMultipathSelectSet/ases=35/k=2 — the BENCH_multipath.json
	// trajectory); 0 for set-size-independent benchmarks.
	K int `json:"k,omitempty"`
	// Fleet/Shards/Dist describe a load-harness sub-benchmark
	// (BenchmarkLoadServing/fleet=16/shards=4/dist=zipf — the
	// BENCH_load.json trajectory); zero values for other suites.
	Fleet    int    `json:"fleet,omitempty"`
	Shards   int    `json:"shards,omitempty"`
	Dist     string `json:"dist,omitempty"`
	BPerOp   int64  `json:"bytes_per_op,omitempty"`
	AllocsOp int64  `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric columns (rps, p99_ms, ...)
	// keyed by unit; nil when a benchmark reports none.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// trajectory is the whole BENCH_docdb.json file: labelled benchmark runs,
// typically "before"/"after" per PR.
type trajectory struct {
	Command string                   `json:"command"`
	Runs    map[string][]benchResult `json:"runs"`
	// Machines names the machine each label was taken on (-machine), so
	// two labels are comparable only when they name the same one.
	Machines map[string]string `json:"machines,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		label     = fs.String("label", "", "label for this run (required), e.g. before, after, pr4")
		out       = fs.String("out", "BENCH_docdb.json", "trajectory file to update")
		bench     = fs.String("bench", "BenchmarkDocDB", "benchmark name regex passed to go test")
		pkg       = fs.String("pkg", "./internal/docdb", "package holding the benchmarks")
		benchtime = fs.String("benchtime", "1s", "go test -benchtime value")
		parse     = fs.String("parse", "", "parse a saved 'go test -bench' output file instead of running")
		machine   = fs.String("machine", "", "the machine the run was taken on, e.g. CPU model and core count")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *label == "" {
		fmt.Fprintln(stderr, "benchjson: -label is required")
		return 2
	}

	var rawOut []byte
	cmdline := fmt.Sprintf("go test -run ^$ -bench %s -benchtime %s -benchmem %s", *bench, *benchtime, *pkg)
	if *parse != "" {
		b, err := os.ReadFile(*parse)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		rawOut = b
	} else {
		fmt.Fprintf(stdout, "benchjson: %s\n", cmdline)
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench,
			"-benchtime", *benchtime, "-benchmem", *pkg)
		cmd.Stderr = stderr
		b, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: go test: %v\n%s", err, b)
			return 1
		}
		rawOut = b
	}

	results := parseBench(string(rawOut))
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines found")
		return 1
	}

	traj := trajectory{Runs: map[string][]benchResult{}}
	if b, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(b, &traj); err != nil {
			fmt.Fprintf(stderr, "benchjson: existing %s is not valid JSON: %v\n", *out, err)
			return 1
		}
		if traj.Runs == nil {
			traj.Runs = map[string][]benchResult{}
		}
	}
	traj.Command = cmdline
	traj.Runs[*label] = results
	delete(traj.Machines, *label)
	if *machine != "" {
		if traj.Machines == nil {
			traj.Machines = map[string]string{}
		}
		traj.Machines[*label] = *machine
	}

	b, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: recorded %d benchmarks under label %q in %s (labels: %s)\n",
		len(results), *label, *out, strings.Join(labels(traj), ", "))
	return 0
}

// benchLine matches the head of a testing package benchmark output line;
// the tail is a sequence of "<value> <unit>" measurement pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(\S.*)$`)

// backendLabel extracts the storage backend from a benchmark path element
// like ".../backend=segment/...".
var backendLabel = regexp.MustCompile(`/backend=([a-z]+)(?:/|-|$)`)

// asesLabel extracts the topology size from a benchmark path element like
// ".../ases=1000/..." (the path-discovery trajectory).
var asesLabel = regexp.MustCompile(`/ases=(\d+)(?:/|-|$)`)

// kLabel extracts the path-set size from a benchmark path element like
// ".../k=4" (the multipath trajectory).
var kLabel = regexp.MustCompile(`/k=(\d+)(?:/|-|$)`)

// fleetLabel/shardsLabel/distLabel extract the load-harness dimensions
// from elements like ".../fleet=16/shards=4/dist=zipf" (BENCH_load.json).
var (
	fleetLabel  = regexp.MustCompile(`/fleet=(\d+)(?:/|-|$)`)
	shardsLabel = regexp.MustCompile(`/shards=(\d+)(?:/|-|$)`)
	distLabel   = regexp.MustCompile(`/dist=([a-z]+)(?:/|-|$)`)
)

// parseBench extracts benchmark results from go test -bench output. The
// measurement tail is parsed pairwise, so custom b.ReportMetric columns
// (which the testing package prints between ns/op and the -benchmem
// columns) land in Metrics instead of breaking the line match.
func parseBench(out string) []benchResult {
	var results []benchResult
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		r := benchResult{Name: m[1]}
		if bm := backendLabel.FindStringSubmatch(m[1]); bm != nil {
			r.Backend = bm[1]
		}
		if am := asesLabel.FindStringSubmatch(m[1]); am != nil {
			r.ASes, _ = strconv.Atoi(am[1])
		}
		if km := kLabel.FindStringSubmatch(m[1]); km != nil {
			r.K, _ = strconv.Atoi(km[1])
		}
		if fm := fleetLabel.FindStringSubmatch(m[1]); fm != nil {
			r.Fleet, _ = strconv.Atoi(fm[1])
		}
		if sm := shardsLabel.FindStringSubmatch(m[1]); sm != nil {
			r.Shards, _ = strconv.Atoi(sm[1])
		}
		if dm := distLabel.FindStringSubmatch(m[1]); dm != nil {
			r.Dist = dm[1]
		}
		r.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		fields := strings.Fields(m[3])
		sawNs := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp, sawNs = v, true
			case "B/op":
				r.BPerOp = int64(v)
			case "allocs/op":
				r.AllocsOp = int64(v)
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if !sawNs {
			continue // not a measurement line (e.g. "BenchmarkX --- FAIL")
		}
		results = append(results, r)
	}
	return results
}

func labels(t trajectory) []string {
	out := make([]string, 0, len(t.Runs))
	for l := range t.Runs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
