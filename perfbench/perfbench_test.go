package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/load"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin/cluster"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// flagValue returns the value following name in args.
func flagValue(args []string, name string) (float64, bool) {
	i := slices.Index(args, name)
	if i < 0 || i+1 >= len(args) {
		return 0, false
	}
	v, err := strconv.ParseFloat(args[i+1], 64)
	return v, err == nil
}

// testConfig is a short run of a workload, sharing BENCHMARK.json's limits.
func testConfig(t *testing.T, workload string, trace bool) config {
	bj := readBenchmarkJSON(t)
	slo, _ := flagValue(bj.Command, "--slo-ms")
	tol, _ := flagValue(bj.Command, "--trace-tol")
	return config{workload: workload, seed: 1, seconds: 0.5, trace: trace,
		sloMs: slo, traceTol: tol, outDir: t.TempDir()}
}

// TestBenchmarkJSON checks BENCHMARK.json against the code: workloads,
// metric names, units and directions, and the limits its command fixes.
func TestBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if slo, ok := flagValue(bj.Command, "--slo-ms"); !ok || slo <= 0 {
		t.Errorf("command %v fixes no positive --slo-ms", bj.Command)
	}
	if tol, ok := flagValue(bj.Command, "--trace-tol"); !ok || tol <= 0 || tol >= 1 {
		t.Errorf("command %v fixes no --trace-tol in (0, 1)", bj.Command)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	var e2e, layer []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v\ncode %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v\ncode %v", layer, perLayer)
	}
}

// TestWorkloads runs every workload briefly, untraced and traced: the
// checks pass, the metrics are exactly the declared ones with their units,
// end-to-end values are never 0, and the traced stage self-times sum to
// the traced total within the tolerance BENCHMARK.json fixes.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"campaign", "serve-read", "serve-write"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				cfg := testConfig(t, name, trace)
				res, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("checks failed: %v", res.problems)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("attempted %d failed %d", res.attempted, res.failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				var names []string
				for _, m := range want {
					names = append(names, m.name)
					got, ok := res.metrics[m.name]
					if !ok {
						continue
					}
					if got.Unit != m.unit {
						t.Errorf("%s: unit %q, declared %q", m.name, got.Unit, m.unit)
					}
					if !trace && got.Value == 0 {
						t.Errorf("%s is 0", m.name)
					}
				}
				slices.Sort(names)
				if got := metricNames(res); !slices.Equal(got, names) {
					t.Errorf("metrics %v\nwant %v", got, names)
				}
				if trace {
					cov := res.metrics["trace.coverage"].Value
					if cov < 1-cfg.traceTol || cov > 1+cfg.traceTol {
						t.Errorf("coverage %v outside 1 ± %v", cov, cfg.traceTol)
					}
					if _, err := os.Stat(filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed1.jsonl", name))); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// metricNames lists a result's metric names in order.
func metricNames(r *result) []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// TestSelfTime pins the self-time algebra: nested, overlapping and
// escaping children, and server spans linked by request id.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Group: true, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 35, End: 50}, // escapes a
		{ID: 5, Parent: 1, Name: "http.request", Req: "r1", Start: 70, End: 90},
		{ID: 6, Name: "server", Req: "r1", Start: 75, End: 85},
	}
	tr := &tracer{spans: spans}
	a := analyze(tr.snapshot())
	self := map[string]time.Duration{}
	for i, s := range a.spans {
		self[s.Name] = a.self[i]
	}
	want := map[string]time.Duration{"root": 100 - 50 - 20, "a": 30 - 5, "b": 30, "c": 15, "http.request": 10, "server": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := a.durations("http.request", true); len(got) != 1 || got[0] != 10 {
		t.Errorf("http.request self %v, want [10]", got)
	}
	// Stage self-times sum to 25+30+15+10+10 = 90 of 100, although the
	// root's children leave 30 of it unclaimed: the overlap of a and b and
	// the part of c outside a count twice, which pushes coverage up.
	if got := a.coverage(); got != 0.9 {
		t.Errorf("coverage %v, want 0.9", got)
	}
}

// TestCoverageUnclaimedPhase checks that time a phase spends outside its
// layer calls lowers coverage, at any depth of the tree: the phase's own
// self time is not staged, and neither is the root's.
func TestCoverageUnclaimedPhase(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pipeline", Group: true, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "setup", Group: true, Start: 0, End: 50},
		{ID: 3, Parent: 2, Name: "cliutil.newworld", Start: 0, End: 20}, // setup leaves 30 unclaimed
		{ID: 4, Parent: 1, Name: "campaign", Group: true, Start: 50, End: 100},
		{ID: 5, Parent: 4, Name: "measure.run", Start: 50, End: 100},
		{ID: 6, Name: probeRoot, Group: true, Start: 100, End: 200}, // probes are left out
		{ID: 7, Parent: 6, Name: "scmp.ping", Start: 100, End: 110},
	}
	if got := analyze(spans).coverage(); got != 0.7 {
		t.Errorf("coverage %v, want 0.7", got)
	}
	// A childless root names one layer call and covers itself.
	if got := analyze([]span{{ID: 1, Name: "docdb.open", Start: 0, End: 10}}).coverage(); got != 1 {
		t.Errorf("one-span coverage %v, want 1", got)
	}
}

// TestFailureAccounting pins the two facts the failure accounting rests
// on: load.Result counts a 409 as a completed request with a latency, and
// on the synthetic catalogue every intent is a 409 — so the benchmark
// counts failures from statuses and sends intents only in the campaign
// world, where every one answers 200.
func TestFailureAccounting(t *testing.T) {
	cfg := testConfig(t, "serve-read", false)
	w, _, err := buildServe(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	sched, err := load.BuildSchedule(load.Config{
		Seed: 1, Mode: load.Closed, Clients: 1, Requests: len(w.dests),
		Destinations: w.dests, ThinkMean: time.Nanosecond, IntentEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &load.Runner{BaseURL: w.lb.URL, Client: w.client}
	lr, err := r.Run(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Statuses[http.StatusConflict] != len(w.dests) || lr.Errors != 0 || lr.P50 <= 0 {
		t.Fatalf("load.Result statuses %v errors %d p50 %v: want every intent a 409 counted as completed",
			lr.Statuses, lr.Errors, lr.P50)
	}
	tally := &subStat{}
	for _, d := range w.dests {
		c, _ := do(w.client, http.MethodPost, w.lb.URL+"/api/intent",
			[]byte(fmt.Sprintf(`{"server_id":%d,"objective":"latency"}`, d)), "", nil)
		tally.add(sample{status: c.status, lat: c.done.Sub(c.sent)}, cfg.slo())
	}
	res := newResult()
	checkServe(res, w, tally, cluster.Stats{}, cluster.Stats{})
	if res.failed != len(w.dests) || res.correct {
		t.Errorf("benchmark counted %d of %d 409s as failed (correct=%t)", res.failed, len(w.dests), res.correct)
	}

	ccfg := testConfig(t, "campaign", false)
	rep, _, err := campaignOnce(context.Background(), ccfg, nil, filepath.Join(ccfg.outDir, "c.db"), false)
	if err != nil {
		t.Fatal(err)
	}
	cres := newResult()
	checkRep(cres, rep, nil)
	if !cres.correct || cres.failed != 0 || len(rep.intents) == 0 {
		t.Fatalf("campaign: %v (failed %d)", cres.problems, cres.failed)
	}
	for _, c := range rep.intents {
		if c.status != http.StatusOK {
			t.Errorf("campaign intent status %d", c.status)
		}
	}
}

// TestGeneratorBounded checks that the loop, with and without the writer,
// opens no more connections than maxConns(), which is at most nproc, as
// counted by the server's ConnState hook.
func TestGeneratorBounded(t *testing.T) {
	if maxConns() > runtime.NumCPU() || maxConns() > 2 {
		t.Fatalf("maxConns %d exceeds nproc %d or 2", maxConns(), runtime.NumCPU())
	}
	for _, writes := range []bool{false, true} {
		cfg := testConfig(t, "serve-read", false)
		cfg.seconds = 0.3
		w, _, err := buildServe(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var writer *statsWriter
		if writes {
			writer = newStatsWriter("w", w.db, w.dests, cfg.seed)
		}
		stats := w.db.Collection(measure.ColStats).Count()
		win, err := closedLoop(w, cfg, nil, writeChecker, cfg.seed, cfg.duration(), writer)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.lb.opened.Load(); got < 1 || got > int64(maxConns()) {
			t.Errorf("writes=%t: %d connections opened, limit %d", writes, got, maxConns())
		}
		n := win.total().n
		inserted := w.db.Collection(measure.ColStats).Count() - stats
		if n == 0 || !writes && inserted != 0 || writes && inserted != n/writeEvery {
			t.Errorf("writes=%t: %d requests, %d inserts", writes, n, inserted)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReconcileCatchesMismatch shows the reconciliation check fires when
// the router's counters and the client tallies disagree.
func TestReconcileCatchesMismatch(t *testing.T) {
	cfg := testConfig(t, "serve-read", false)
	w, _, err := buildServe(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	before := w.router.Stats()
	win, err := closedLoop(w, cfg, nil, func(int, int, []byte) string { return "" }, cfg.seed, cfg.duration(), nil)
	if err != nil {
		t.Fatal(err)
	}
	after := w.router.Stats()
	res := newResult()
	checkServe(res, w, win.total(), before, after)
	if !res.correct {
		t.Fatalf("honest tallies do not reconcile: %v", res.problems)
	}
	for _, tamper := range []func(*cluster.Stats){
		func(s *cluster.Stats) { s.RequestsTotal++ },
		func(s *cluster.Stats) { s.CacheHits++ },
		func(s *cluster.Stats) { s.ShedTotal++ },
		func(s *cluster.Stats) { s.RateLimitedTotal++ },
	} {
		bad := after
		tamper(&bad)
		res := newResult()
		checkServe(res, w, win.total(), before, bad)
		if res.correct {
			t.Errorf("tampered counters %+v reconciled", bad)
		}
	}
}

// worldDigest hashes everything a workload derives from its seed: the
// request schedule, and the world's stored data — the synthetic catalogue
// for serving, the collected paths plus one measurement per destination
// for the campaign.
func worldDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	h := sha256.New()
	hashDocs := func(docs []docdb.Document) {
		slices.SortFunc(docs, func(a, b docdb.Document) int { return strings.Compare(a.ID(), b.ID()) })
		b, err := json.Marshal(docs)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	switch workload {
	case "campaign":
		w, err := cliutil.NewWorld(seed, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := measure.CollectPaths(context.Background(), w.DB, w.Daemon, measure.CollectOpts{}); err != nil {
			t.Fatal(err)
		}
		hashDocs(w.DB.Collection(measure.ColPaths).Find(docdb.Query{}))
		paths, err := measure.AllPaths(w.DB)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := reachableServers(w)
		if err != nil {
			t.Fatal(err)
		}
		ias, err := destIAs(w.DB, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			live, err := w.Daemon.PathsTo(ias[i])
			if err != nil {
				t.Fatal(err)
			}
			for _, pd := range paths {
				if pd.ServerID != id {
					continue
				}
				p := pathmgr.FindBySequence(live, pd.Sequence)
				st, err := scmp.Ping(w.Net, p, scmp.PingOpts{Count: 10, Interval: 100 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %v %v|", pd.ID, st.Avg, st.Loss)
				break
			}
		}
	default:
		db := docdb.MustOpen()
		dests, err := load.SeedSynthetic(db, topology.DefaultWorld(), serveDests, servePathsPer, serveStatsPer, seed)
		if err != nil {
			t.Fatal(err)
		}
		hashDocs(db.Collection(measure.ColPaths).Find(docdb.Query{}))
		hashDocs(db.Collection(measure.ColStats).Find(docdb.Query{}))
		s, err := load.BuildSchedule(load.Config{Seed: seed, Mode: load.Closed, Dist: load.Zipf, Clients: maxConns(),
			Requests: 4096, Destinations: dests, ThinkMean: time.Nanosecond, Top: probeTop})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%v", s.PerClient)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeedDeterminism checks that one seed gives one world and schedule,
// and another seed a different one.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"campaign", "serve-read", "serve-write"} {
		a, b, c := worldDigest(t, name, 1), worldDigest(t, name, 1), worldDigest(t, name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}
