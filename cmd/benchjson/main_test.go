package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/upin/scionpath/internal/docdb
BenchmarkDocDBFindEq/n=10k-8         	   12345	     97531 ns/op	   20480 B/op	     210 allocs/op
BenchmarkDocDBTopK/n=100k-8          	      50	  22334455.5 ns/op
BenchmarkDocDBLoad/backend=segment/n=100k-8 	       3	 163000000 ns/op
BenchmarkPathDiscCombineCached/ases=1000-8  	  200000	      5123 ns/op	    1024 B/op	      12 allocs/op
PASS
ok  	github.com/upin/scionpath/internal/docdb	3.2s
`

func TestParseBench(t *testing.T) {
	got := parseBench(sampleOutput)
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4", len(got))
	}
	first := got[0]
	if first.Name != "BenchmarkDocDBFindEq/n=10k-8" || first.Iters != 12345 ||
		first.NsPerOp != 97531 || first.BPerOp != 20480 || first.AllocsOp != 210 {
		t.Errorf("first result: %+v", first)
	}
	second := got[1]
	if second.Name != "BenchmarkDocDBTopK/n=100k-8" || second.NsPerOp != 22334455.5 || second.BPerOp != 0 {
		t.Errorf("second result: %+v", second)
	}
	if first.Backend != "" || second.Backend != "" {
		t.Errorf("backend-independent results carry backend labels: %+v, %+v", first, second)
	}
	third := got[2]
	if third.Backend != "segment" {
		t.Errorf("third result backend %q, want segment: %+v", third.Backend, third)
	}
	if first.ASes != 0 || third.ASes != 0 {
		t.Errorf("size-independent results carry AS counts: %+v, %+v", first, third)
	}
	fourth := got[3]
	if fourth.ASes != 1000 || fourth.NsPerOp != 5123 {
		t.Errorf("fourth result: %+v", fourth)
	}
}

const loadOutput = `goos: linux
pkg: github.com/upin/scionpath/internal/load
BenchmarkLoadServing/fleet=16/shards=4/dist=zipf-1  	       1	 512345678 ns/op	        42.50 p50_ms	       120.8 p99_ms	       891.2 rps	        0.01250 unavailable_rate	  123456 B/op	     789 allocs/op
BenchmarkLoadServing/fleet=8/shards=1/dist=uniform-1	       1	 987654321 ns/op	       310.0 rps
BenchmarkLoadChaos/fleet=16/shards=4/dist=zipf-1    	       1	 700000000 ns/op	         2.000 recovery_buckets
PASS
`

// TestParseBenchLoadLabels: fleet=/shards=/dist= land in their fields and
// custom b.ReportMetric columns land in Metrics, with -benchmem columns
// still parsed around them.
func TestParseBenchLoadLabels(t *testing.T) {
	got := parseBench(loadOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3", len(got))
	}
	first := got[0]
	if first.Fleet != 16 || first.Shards != 4 || first.Dist != "zipf" {
		t.Errorf("labels: %+v", first)
	}
	if first.NsPerOp != 512345678 || first.BPerOp != 123456 || first.AllocsOp != 789 {
		t.Errorf("standard columns lost around custom metrics: %+v", first)
	}
	want := map[string]float64{
		"p50_ms": 42.50, "p99_ms": 120.8, "rps": 891.2, "unavailable_rate": 0.01250,
	}
	for unit, v := range want {
		if first.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, first.Metrics[unit], v)
		}
	}
	second := got[1]
	if second.Fleet != 8 || second.Shards != 1 || second.Dist != "uniform" ||
		second.Metrics["rps"] != 310.0 || second.BPerOp != 0 {
		t.Errorf("second result: %+v", second)
	}
	if got[2].Metrics["recovery_buckets"] != 2 {
		t.Errorf("third result: %+v", got[2])
	}
	// Non-load results must not pick up load labels.
	if plain := parseBench(sampleOutput); plain[0].Fleet != 0 || plain[0].Shards != 0 || plain[0].Dist != "" || plain[0].Metrics != nil {
		t.Errorf("docdb result carries load labels: %+v", plain[0])
	}
}

// TestParseBenchKLabel: the multipath trajectory's k= label lands in K
// alongside the AS count, and k-independent suites stay at zero.
func TestParseBenchKLabel(t *testing.T) {
	out := `pkg: github.com/upin/scionpath/internal/selection
BenchmarkMultipathSelectSet/ases=35/k=2-8   	   90000	     13000 ns/op	    4096 B/op	      40 allocs/op
BenchmarkMultipathSelectSet/ases=1000/k=4-8 	    2000	    529000 ns/op
PASS
`
	got := parseBench(out)
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2", len(got))
	}
	if got[0].ASes != 35 || got[0].K != 2 {
		t.Errorf("first result labels: %+v", got[0])
	}
	if got[1].ASes != 1000 || got[1].K != 4 || got[1].NsPerOp != 529000 {
		t.Errorf("second result: %+v", got[1])
	}
	// The k= label must survive JSON round-tripping under its own key.
	b, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"k":2`)) {
		t.Errorf("k missing from JSON: %s", b)
	}
	if plain := parseBench(sampleOutput); plain[0].K != 0 || plain[3].K != 0 {
		t.Errorf("k-independent results carry k: %+v, %+v", plain[0], plain[3])
	}
}

// TestParseBenchSkipsNonMeasurement: lines without an ns/op column (FAIL
// markers, truncated output) are dropped, not recorded as zeros.
func TestParseBenchSkipsNonMeasurement(t *testing.T) {
	got := parseBench("BenchmarkBroken-8   \t 1   --- FAIL\nBenchmarkOK-8 \t 2 \t 5 ns/op\n")
	if len(got) != 1 || got[0].Name != "BenchmarkOK-8" {
		t.Fatalf("parsed: %+v", got)
	}
}

func TestRunParseModeMergesLabels(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_docdb.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-label", "before", "-parse", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	// A second label must not clobber the first.
	if code := run([]string{"-label", "after", "-parse", in, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(b, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Runs) != 2 || len(traj.Runs["before"]) != 4 || len(traj.Runs["after"]) != 4 {
		t.Fatalf("trajectory runs: %+v", traj.Runs)
	}
}

func TestRunRequiresLabel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunRejectsNoResults(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-label", "x", "-parse", in, "-out", filepath.Join(dir, "o.json")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestRunRecordsMachine: -machine names the machine per label, and
// re-recording a label without it drops the stale name.
func TestRunRecordsMachine(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH_x.json")
	read := func() trajectory {
		t.Helper()
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var traj trajectory
		if err := json.Unmarshal(b, &traj); err != nil {
			t.Fatal(err)
		}
		return traj
	}
	var stdout, stderr bytes.Buffer
	for i, args := range [][]string{
		{"-label", "base", "-machine", "box A", "-parse", in, "-out", out},
		{"-label", "change", "-machine", "box A", "-parse", in, "-out", out},
		{"-label", "change", "-parse", in, "-out", out},
	} {
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if i == 1 {
			if m := read().Machines; m["base"] != "box A" || m["change"] != "box A" {
				t.Fatalf("machines after two labels: %v", m)
			}
		}
	}
	if m := read().Machines; m["base"] != "box A" || len(m) != 1 {
		t.Fatalf("machines after re-recording without -machine: %v", m)
	}
}
