package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/bwtest"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/experiments"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/scmp"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
	"github.com/upin/scionpath/internal/upin/cluster"
)

// The layer probes time calls into every layer's public functions on the
// workload's own world, after its measured pipeline. A workload's traced
// pipeline already times the layers it drives; a probe gives a number for
// every other layer, so each traced run reports every per-layer metric.
// Pipeline spans take precedence over probe spans of the same name, and a
// workload's own counters overwrite the probes' fallback counts.

// probeWorld is what the probes run against.
type probeWorld struct {
	topo    *topology.Topology
	net     *simnet.Network
	daemon  *sciond.Daemon
	db      *docdb.DB
	dests   []int // destination server ids with stored paths
	scratch string
	seed    int64
}

const (
	probeBeacons  = 3  // sciond.New calls
	probeReplays  = 24 // stored paths replayed through fork, ping and bwtest
	probeBatches  = 40 // cell-sized docdb batches
	probeRepeats  = 5  // Select/SelectSet/paths/fold repetitions per destination
	probeTop      = 5  // ?top= of the probed /api/paths requests
	probeSetK     = 3  // ?k= of /api/pathset requests
	probeClusterN = 4  // cluster requests per destination
)

func runProbes(ctx context.Context, tr *tracer, pw *probeWorld, res *result) error {
	root := tr.start(probeRoot, 0)
	defer root.end()
	ias, err := destIAs(pw.db, pw.dests)
	if err != nil {
		return err
	}

	// Control plane: beaconing, then cold path combination per destination.
	var cold *sciond.Daemon
	for i := 0; i < probeBeacons; i++ {
		sp := tr.start("segment.beacon", root.id)
		cold, err = sciond.New(pw.topo, pw.net, topology.MyAS)
		sp.end()
		if err != nil {
			return err
		}
	}
	for _, ia := range ias {
		sp := tr.start("sciond.showpaths", root.id)
		_, err := cold.ShowPaths(ia, sciond.ShowPathsOpts{MaxPaths: 40, Extended: true})
		sp.end()
		if err != nil {
			return fmt.Errorf("probe showpaths %s: %w", ia, err)
		}
	}

	// Measurement: collect and a one-cell campaign into a scratch database.
	mdb := docdb.MustOpen()
	if err := measure.SeedServers(mdb, pw.topo); err != nil {
		return err
	}
	sp := tr.start("measure.collect", root.id)
	_, err = measure.CollectPaths(ctx, mdb, cold, measure.CollectOpts{})
	sp.end()
	if err != nil {
		return err
	}
	opts := campaignOpts(pw.dests[:1])
	opts.Iterations = 1
	sp = tr.start("measure.run", root.id)
	rep, err := (&measure.Suite{DB: mdb, Daemon: cold}).Run(ctx, opts)
	sp.end()
	if err != nil {
		return err
	}
	res.put("measure.cells", "count", float64(rep.Iterations*rep.Destinations), 1)
	res.put("measure.paths_tested", "count", float64(rep.PathsTested), 1)

	if err := probeReplay(tr, root.id, pw, mdb, ias); err != nil {
		return err
	}
	if err := probeDocDB(tr, root.id, pw, res); err != nil {
		return err
	}
	return probeServing(ctx, tr, root.id, pw, res)
}

// destIAs resolves server ids to their ASes.
func destIAs(db *docdb.DB, ids []int) ([]addr.IA, error) {
	servers, err := measure.Servers(db)
	if err != nil {
		return nil, err
	}
	byID := map[int]addr.IA{}
	for _, s := range servers {
		byID[s.ID] = s.Address.IA
	}
	out := make([]addr.IA, 0, len(ids))
	for _, id := range ids {
		ia, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("no server %d", id)
		}
		out = append(out, ia)
	}
	return out, nil
}

// probeReplay replays stored paths through the data-plane calls with the
// campaign's parameters: fork a private world, ping, then bwtest with
// 64-byte and MTU-sized packets.
func probeReplay(tr *tracer, parent int64, pw *probeWorld, mdb *docdb.DB, ias []addr.IA) error {
	paths, err := measure.AllPaths(mdb)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("probe replay: no stored paths")
	}
	iaByID := map[int]addr.IA{}
	for i, id := range pw.dests {
		iaByID[id] = ias[i]
	}
	servers, err := measure.Servers(mdb)
	if err != nil {
		return err
	}
	for _, s := range servers {
		if _, ok := iaByID[s.ID]; !ok {
			iaByID[s.ID] = s.Address.IA
		}
	}
	sc := experiments.PaperScale
	rng := rand.New(rand.NewSource(pw.seed))
	for i := 0; i < probeReplays; i++ {
		pd := paths[rng.Intn(len(paths))]
		sp := tr.start("simnet.fork", parent)
		net := pw.net.Fork(pw.seed + int64(i))
		sp.end()
		d := pw.daemon.Fork(net)
		live, err := d.PathsTo(iaByID[pd.ServerID])
		if err != nil {
			return fmt.Errorf("probe replay %s: %w", pd.ID, err)
		}
		p := pathmgr.FindBySequence(live, pd.Sequence)
		if p == nil {
			return fmt.Errorf("probe replay %s: stored path no longer live", pd.ID)
		}
		sp = tr.start("scmp.ping", parent)
		_, err = scmp.Ping(net, p, scmp.PingOpts{Count: sc.PingCount, Interval: sc.PingInterval})
		sp.end()
		if err != nil {
			return fmt.Errorf("probe ping %s: %w", pd.ID, err)
		}
		for _, size := range []int{64, p.MTU} {
			target := 12e6
			count := max(1, int(target*sc.BwDuration.Seconds()/float64(size*8)))
			params := bwtest.Params{Duration: sc.BwDuration, PacketBytes: size, PacketCount: count, TargetBps: target}
			sp = tr.start("bwtest.run", parent)
			_, err = bwtest.Run(net, p, params, bwtest.Params{})
			sp.end()
			if err != nil {
				return fmt.Errorf("probe bwtest %s: %w", pd.ID, err)
			}
		}
	}
	return nil
}

// probeDocDB writes the workload's statistics, one cell-sized batch at a
// time, into a fresh on-disk database with the default backend (upsert +
// flush per batch, as the campaign stores a cell), then reopens it.
func probeDocDB(tr *tracer, parent int64, pw *probeWorld, res *result) error {
	path := filepath.Join(pw.scratch, "probe-docdb")
	db, err := docdb.Open(docdb.WithPath(path))
	if err != nil {
		return err
	}
	var userBytes int64
	batches := 0
	for _, id := range pw.dests {
		cell := pw.db.Collection(measure.ColPaths).Find(docdb.Query{Filter: docdb.Eq(measure.FServerID, id), Project: []string{"_id"}})
		stats := pw.db.Collection(measure.ColStats).Find(docdb.Query{Filter: docdb.Eq(measure.FServerID, id), SortBy: "_id"})
		size := max(1, len(cell))
		for lo := 0; lo < len(stats) && batches < probeBatches; lo += size {
			batch := stats[lo:min(lo+size, len(stats))]
			for _, d := range batch {
				b, err := json.Marshal(d)
				if err != nil {
					return err
				}
				userBytes += int64(len(b))
			}
			sp := tr.start("docdb.upsert", parent)
			_, err := db.Collection(measure.ColStats).UpsertMany(batch)
			sp.end()
			if err != nil {
				return err
			}
			sp = tr.start("docdb.flush", parent)
			err = db.Flush()
			sp.end()
			if err != nil {
				return err
			}
			batches++
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	disk, err := diskBytes(path)
	if err != nil {
		return err
	}
	sp := tr.start("docdb.open", parent)
	db, err = docdb.Open(docdb.WithPath(path))
	sp.end()
	if err != nil {
		return err
	}
	records := 0
	for _, name := range db.CollectionNames() {
		records += db.Collection(name).Count()
	}
	if err := db.Close(); err != nil {
		return err
	}
	if userBytes == 0 {
		return fmt.Errorf("probe docdb: no statistics to write")
	}
	res.put("docdb.bytes_per_user_byte", "ratio", float64(disk)/float64(userBytes), batches)
	res.put("docdb.records_replayed", "count", float64(records), 1)
	return os.RemoveAll(path)
}

// diskBytes is the size of a file, or of every file under a directory.
func diskBytes(path string) (int64, error) {
	var total int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// probeServing times the selection engine, the upin front-end and the
// cluster router in process, without HTTP.
func probeServing(ctx context.Context, tr *tracer, parent int64, pw *probeWorld, res *result) error {
	eng := selection.New(pw.db, pw.topo)
	sp := tr.start("selection.rebuild", parent)
	_, err := eng.Select(ctx, pw.dests[0], selection.Request{})
	sp.end()
	if err != nil {
		return fmt.Errorf("probe rebuild: %w", err)
	}
	for r := 0; r < probeRepeats; r++ {
		for _, id := range pw.dests {
			sp := tr.start("selection.select", parent)
			_, err := eng.Select(ctx, id, selection.Request{})
			sp.end()
			if err != nil {
				return fmt.Errorf("probe select %d: %w", id, err)
			}
			sp = tr.start("selection.selectset", parent)
			_, err = eng.SelectSet(ctx, id, selection.SetRequest{K: probeSetK})
			sp.end()
			if err != nil {
				return fmt.Errorf("probe selectset %d: %w", id, err)
			}
		}
	}

	explorer := upin.NewDomainExplorer(pw.topo, domainISDs)
	srv := upin.NewServer(pw.db, pw.daemon, pw.net, eng, explorer)
	for r := 0; r < probeRepeats; r++ {
		for _, id := range pw.dests {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/paths?server=%d&top=%d", id, probeTop), nil)
			sp := tr.start("upin.paths", parent)
			srv.ServeHTTP(rec, req)
			sp.end()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("probe /api/paths server %d: status %d", id, rec.Code)
			}
		}
	}
	for _, id := range pw.dests {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"server_id":%d,"objective":"latency"}`, id)
		req := httptest.NewRequest(http.MethodPost, "/api/intent", strings.NewReader(body))
		sp := tr.start("upin.intent", parent)
		srv.ServeHTTP(rec, req)
		sp.end()
	}

	// Fold: one stats insert, then the first Select after it.
	w := newStatsWriter("probe", pw.db, pw.dests, pw.seed)
	for r := 0; r < probeRepeats; r++ {
		sp := tr.start("docdb.insert", parent)
		err := w.insert(r)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.start("selection.fold", parent)
		_, err = eng.Select(ctx, pw.dests[r%len(pw.dests)], selection.Request{})
		sp.end()
		if err != nil {
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}

	router := cluster.New(pw.db, pw.daemon, pw.net, explorer, pw.topo, serveTierConfig())
	for r := 0; r < probeClusterN; r++ {
		for _, id := range pw.dests {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/paths?server=%d&top=%d", id, probeTop), nil)
			sp := tr.start("cluster.serve", parent)
			router.ServeHTTP(rec, req)
			sp.end()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("probe cluster server %d: status %d", id, rec.Code)
			}
		}
	}
	st := router.Stats()
	putClusterCounts(res, st, cluster.Stats{})
	return router.Close()
}

// putClusterCounts records the router's counters accumulated since base.
func putClusterCounts(res *result, st, base cluster.Stats) {
	hits, misses := st.CacheHits-base.CacheHits, st.CacheMisses-base.CacheMisses
	n := int(hits + misses)
	res.put("cluster.cache_hit_ratio", "ratio", float64(hits)/float64(max(n, 1)), n)
	res.put("cluster.shed", "count", float64(st.ShedTotal-base.ShedTotal), n)
	res.put("cluster.rate_limited", "count", float64(st.RateLimitedTotal-base.RateLimitedTotal), n)
}

// statsWriter inserts stats documents shaped like the ones the load
// benchmarks' steady writer inserts: one measurement of path 0 of a
// destination, at a strictly increasing timestamp.
type statsWriter struct {
	tag   string // keeps the ids of different writers apart
	db    *docdb.DB
	dests []int
	rng   *rand.Rand
	ts    int64
}

// Its timestamps start above every stored one: a document below the
// selection engine's high-water mark would force a full snapshot rebuild
// instead of the incremental fold the writers exist to exercise.
func newStatsWriter(tag string, db *docdb.DB, dests []int, seed int64) *statsWriter {
	ts := int64(1_800_000_000_000)
	last := db.Collection(measure.ColStats).FindOne(docdb.Query{SortBy: measure.FTimestamp, SortDesc: true})
	switch v := last[measure.FTimestamp].(type) {
	case int64:
		ts = max(ts, v)
	case float64:
		ts = max(ts, int64(v))
	}
	return &statsWriter{tag: tag, db: db, dests: dests, rng: rand.New(rand.NewSource(seed)), ts: ts}
}

// insert writes the n-th document.
func (w *statsWriter) insert(n int) error {
	w.ts += int64(1 + w.rng.Intn(1000))
	dest := w.dests[n%len(w.dests)]
	pid := measure.PathID(dest, 0)
	return w.db.Collection(measure.ColStats).Insert(docdb.Document{
		"_id": fmt.Sprintf("%s@%s%d", pid, w.tag, w.ts), measure.FPathID: pid,
		measure.FServerID: dest, measure.FTimestamp: w.ts,
		measure.FLoss: float64(w.rng.Intn(20)) / 10, measure.FAvgLatency: 10 + w.rng.Float64()*150,
		measure.FMdev: w.rng.Float64() * 5, measure.FBwUpMTU: 1e6 + w.rng.Float64()*1e8,
		measure.FBwDownMTU: 1e6 + w.rng.Float64()*1e8,
	})
}

// layerSpec is one per-layer metric derived from spans.
type layerSpec struct {
	name, span, unit string
	self             bool // self time instead of duration
}

// spanMetrics are the per-layer metrics read from spans: the median
// duration (or self time) of the spans with that name.
var spanMetrics = []layerSpec{
	{"segment.beacon_ms", "segment.beacon", "ms", false},
	{"sciond.showpaths_ms", "sciond.showpaths", "ms", false},
	{"measure.collect_ms", "measure.collect", "ms", false},
	{"measure.run_ms", "measure.run", "ms", false},
	{"simnet.fork_ms", "simnet.fork", "ms", false},
	{"scmp.ping_ms", "scmp.ping", "ms", false},
	{"bwtest.run_ms", "bwtest.run", "ms", false},
	{"docdb.upsert_ms", "docdb.upsert", "ms", false},
	{"docdb.flush_ms", "docdb.flush", "ms", false},
	{"docdb.open_ms", "docdb.open", "ms", false},
	{"selection.rebuild_ms", "selection.rebuild", "ms", false},
	{"upin.intent_ms", "upin.intent", "ms", false},
	{"selection.select_us", "selection.select", "us", false},
	{"selection.selectset_us", "selection.selectset", "us", false},
	{"selection.fold_ms", "selection.fold", "ms", false},
	{"cluster.serve_us", "cluster.serve", "us", false},
	{"http.overhead_us", "http.request", "us", true},
	{"upin.paths_us", "upin.paths", "us", false},
	{"docdb.insert_us", "docdb.insert", "us", false},
}

// finishTrace derives the span metrics, the tracing overhead (traced over
// untraced cost of the same unit of work, in percent) and the coverage
// check, and writes the trace file.
func finishTrace(cfg config, tr *tracer, res *result, untraced, traced []float64) error {
	spans := tr.snapshot()
	a := analyze(spans)
	for _, m := range spanMetrics {
		ds := a.durations(m.span, m.self)
		if len(ds) == 0 {
			res.fail("trace: no %q spans for %s", m.span, m.name)
			continue
		}
		vals := make([]float64, len(ds))
		for i, d := range ds {
			if m.unit == "us" {
				vals[i] = us(d)
			} else {
				vals[i] = ms(d)
			}
		}
		res.put(m.name, m.unit, median(vals), len(vals))
	}
	if len(untraced) > 0 && len(traced) > 0 {
		res.put("trace.overhead_pct", "%", (median(traced)/median(untraced)-1)*100, len(untraced)+len(traced))
	} else {
		res.fail("trace: need traced and untraced repetitions for the overhead")
	}
	cov := a.coverage()
	res.put("trace.coverage", "ratio", cov, len(spans))
	if d := cov - 1; d > cfg.traceTol || -d > cfg.traceTol {
		res.fail("trace: stage self-times cover %.4f of the traced total, tolerance %.3f", cov, cfg.traceTol)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	return writeTrace(path, stampEnv(), spans)
}
