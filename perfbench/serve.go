package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/load"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
	"github.com/upin/scionpath/internal/upin/cluster"
)

// The serving workloads drive the sharded UPIN tier (cluster.New, response
// caching on) over loopback HTTP against the heavy synthetic catalogue of
// the load benchmarks: 6 destinations x 1000 paths x 2 statistics each.
// Requests alternate GET /api/paths?top=5 and GET /api/pathset?k=3 with
// zipf destination popularity from load.BuildSchedule.
//
// Both are closed loops of maxConns() clients with zero think time.
//
//   - serve-read writes nothing, so nearly every request is a cache hit.
//   - serve-write inserts one stats document every writeEvery responses;
//     each insert invalidates the caches, so the misses that follow pay for
//     a snapshot fold, a 1000-candidate Select and the encoding.

const (
	serveDests    = 6
	servePathsPer = 1000
	serveStatsPer = 2
	serveShards   = 2
	serveCache    = 512
	// A run is serveCycles cycles of serveSetups set-ups followed by a
	// measured window on the last one, so that set-ups and windows sample
	// the whole run; set-up metrics are medians over every set-up.
	serveCycles = 5
	serveSetups = 3
	// warmRequests per destination and kind fill caches and snapshots
	// before the measured window.
	warmRequests = 20

	// writeEvery is the serve-write responses per stats insert: the
	// cadence of the steady writer of the load package's BenchmarkLoad.
	writeEvery = 40

	// subWindowLen groups the samples for the rate and latency medians.
	subWindowLen = 500 * time.Millisecond
	// traceSlice is the sub-window of a traced run; slices alternate
	// untraced and traced.
	traceSlice = 250 * time.Millisecond
)

func serveTierConfig() cluster.Config {
	return cluster.Config{Shards: serveShards, CacheEntries: serveCache}
}

// requestURL is the n-th request of a schedule to destination dest: even
// requests ask for paths, odd ones for a path set.
func requestURL(base string, n, dest int) (url, key string) {
	if n%2 == 0 {
		key = fmt.Sprintf("/api/paths?server=%d&top=%d", dest, probeTop)
	} else {
		key = fmt.Sprintf("/api/pathset?server=%d&k=%d", dest, probeSetK)
	}
	return base + key, key
}

// serveWorld is one built serving tier.
type serveWorld struct {
	topo   *topology.Topology
	net    *simnet.Network
	daemon *sciond.Daemon
	db     *docdb.DB
	dests  []int
	router *cluster.Router
	lb     *loopback
	client *http.Client
}

func (w *serveWorld) close() error {
	w.client.CloseIdleConnections()
	w.lb.Close()
	return w.router.Close()
}

// setupTimes are one set-up's phases in process CPU time (see cpuTime)
// and in wall time.
type setupTimes struct {
	total, fill, firstAnswer time.Duration
	wall                     phaseWall
}

// buildServe builds the world, seeds the catalogue, starts the tier and
// waits for a first answer per destination, then warms every cache key.
func buildServe(cfg config, tr *tracer) (*serveWorld, setupTimes, error) {
	var st setupTimes
	root := tr.group("setup", 0)
	defer root.end()
	t0, c0 := time.Now(), cpuTime()
	sp := tr.start("topology.world", root.id)
	w := &serveWorld{topo: topology.DefaultWorld()}
	sp.end()
	sp = tr.start("simnet.new", root.id)
	w.net = simnet.New(w.topo, simnet.Options{Seed: cfg.seed})
	sp.end()
	sp = tr.start("segment.beacon", root.id)
	d, err := sciond.New(w.topo, w.net, topology.MyAS)
	sp.end()
	if err != nil {
		return nil, st, err
	}
	w.daemon = d
	t1, c1 := time.Now(), cpuTime()
	w.db = docdb.MustOpen()
	sp = tr.start("load.seed", root.id)
	w.dests, err = load.SeedSynthetic(w.db, w.topo, serveDests, servePathsPer, serveStatsPer, cfg.seed)
	sp.end()
	if err != nil {
		return nil, st, err
	}
	t2, c2 := time.Now(), cpuTime()
	fa := tr.group("first_answer", root.id)
	sp = tr.start("cluster.new", fa.id)
	explorer := upin.NewDomainExplorer(w.topo, domainISDs)
	w.router = cluster.New(w.db, w.daemon, w.net, explorer, w.topo, serveTierConfig())
	w.lb = startLoopback(tr.wrap("cluster.serve", w.router))
	w.client = newClient(maxConns())
	sp.end()
	var buf []byte
	for _, dest := range w.dests {
		url, _ := requestURL(w.lb.URL, 0, dest)
		reqID := tr.newRequestID()
		a := tr.startAt("http.request", fa.id, reqID, time.Now())
		var c call
		c, buf = do(w.client, http.MethodGet, url, nil, reqID, buf)
		a.endAt(c.done)
		if c.status != http.StatusOK {
			fa.end()
			return nil, st, fmt.Errorf("first answer for server %d: status %d", dest, c.status)
		}
	}
	fa.end()
	t3, c3 := time.Now(), cpuTime()
	sp = tr.start("warmup", root.id)
	for n := 0; n < 2*warmRequests; n++ {
		for _, dest := range w.dests {
			url, _ := requestURL(w.lb.URL, n, dest)
			var c call
			c, buf = do(w.client, http.MethodGet, url, nil, "", buf)
			if c.status != http.StatusOK {
				sp.end()
				return nil, st, fmt.Errorf("warm-up for server %d: status %d", dest, c.status)
			}
		}
	}
	sp.end()
	t4, c4 := time.Now(), cpuTime()
	st.fill, st.firstAnswer = c2-c1, c3-c2
	st.total = c4 - c0
	st.wall = phaseWall{setup: t4.Sub(t0), campaign: t2.Sub(t1), firstAnswer: t3.Sub(t2)}
	return w, st, nil
}

// references serves every request key once through a plain upin.Server on
// the same database: the cluster's answers must match these bytes.
func references(w *serveWorld) (map[string][]byte, error) {
	srv := upin.NewServer(w.db, w.daemon, w.net, selection.New(w.db, w.topo), upin.NewDomainExplorer(w.topo, domainISDs))
	refs := map[string][]byte{}
	for n := 0; n < 2; n++ {
		for _, dest := range w.dests {
			_, key := requestURL("", n, dest)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, key, nil))
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("reference %s: status %d", key, rec.Code)
			}
			refs[key] = rec.Body.Bytes()
		}
	}
	return refs, srv.Close()
}

// sample is one measured request.
type sample struct {
	origin time.Duration // offset from window start: send (closed) or scheduled arrival (open)
	lat    time.Duration // from origin to the last body byte
	late   time.Duration // send time minus when the generator meant to send
	status int
	traced bool
	bad    string // why the body is wrong; empty when it checks out
}

// subStat aggregates the requests of one sub-window. Latencies are kept
// as uint32 nanoseconds so a closed loop at tens of thousands of requests
// per second adds little to the heap it measures.
type subStat struct {
	lats   []uint32 // latency of each 2xx answer
	late   []uint32
	n, ok  int
	slo    int // 2xx within the latency limit
	status map[int]int
	latSum time.Duration
	span   time.Duration // length of the sub-window
	traced bool
	bad    []string // first few body problems
	bads   int
}

func nsU32(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	return uint32(min(int64(d), math.MaxUint32))
}

func (st *subStat) add(s sample, slo time.Duration) {
	if st.status == nil {
		st.status = map[int]int{}
	}
	st.n++
	st.status[s.status]++
	st.traced = st.traced || s.traced
	st.late = append(st.late, nsU32(s.late))
	st.latSum += s.lat
	if s.bad != "" {
		st.bads++
		if len(st.bad) < 3 {
			st.bad = append(st.bad, s.bad)
		}
	}
	if !ok2xx(s.status) {
		return
	}
	st.ok++
	st.lats = append(st.lats, nsU32(s.lat))
	if s.lat <= slo {
		st.slo++
	}
}

// merge folds o into st.
func (st *subStat) merge(o *subStat) {
	if st.status == nil {
		st.status = map[int]int{}
	}
	st.lats = append(st.lats, o.lats...)
	st.late = append(st.late, o.late...)
	st.n += o.n
	st.ok += o.ok
	st.slo += o.slo
	for k, v := range o.status {
		st.status[k] += v
	}
	st.latSum += o.latSum
	st.traced = st.traced || o.traced
	st.bads += o.bads
	st.bad = append(st.bad, o.bad...)
}

// statAt returns the sub-window stat for index i, growing subs as needed.
func statAt(subs *[]*subStat, i int) *subStat {
	for len(*subs) <= i {
		*subs = append(*subs, &subStat{})
	}
	return (*subs)[i]
}

// checker validates response bodies.
type checker func(n, dest int, body []byte) string

// readChecker compares every body with the reference answer.
func readChecker(refs map[string][]byte) checker {
	return func(n, dest int, body []byte) string {
		_, key := requestURL("", n, dest)
		if !bytes.Equal(body, refs[key]) {
			return key + ": body differs from the single-server answer"
		}
		return ""
	}
}

// writeChecker decodes every body and checks its shape, since writes move
// the answers while the run goes on.
func writeChecker(n, dest int, body []byte) string {
	prefix := fmt.Sprintf("%d_", dest)
	if n%2 == 0 {
		var paths []struct {
			PathID string `json:"path_id"`
		}
		if err := json.Unmarshal(body, &paths); err != nil {
			return err.Error()
		}
		if len(paths) != probeTop {
			return fmt.Sprintf("paths for %d: %d candidates, want %d", dest, len(paths), probeTop)
		}
		for _, p := range paths {
			if !strings.HasPrefix(p.PathID, prefix) {
				return fmt.Sprintf("paths for %d: foreign path %q", dest, p.PathID)
			}
		}
		return ""
	}
	var set struct {
		ServerID int `json:"server_id"`
		K        int `json:"k"`
		Paths    []struct {
			PathID string `json:"path_id"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(body, &set); err != nil {
		return err.Error()
	}
	if set.ServerID != dest || set.K != probeSetK || len(set.Paths) != probeSetK {
		return fmt.Sprintf("pathset for %d: server %d k %d paths %d", dest, set.ServerID, set.K, len(set.Paths))
	}
	return ""
}

// window is one measured stretch of a run.
type window struct {
	subs   []*subStat // by sub-window
	alloc  uint64
	heapMB float64
}

// setSpans records how long each sub-window of a window of length d is.
func (w *window) setSpans(sub, d time.Duration) {
	for i := range d / sub {
		statAt(&w.subs, int(i))
	}
	for i, st := range w.subs {
		st.span = min(sub, d-time.Duration(i)*sub)
	}
}

// total merges every sub-window.
func (w *window) total() *subStat {
	t := &subStat{}
	for _, s := range w.subs {
		t.merge(s)
	}
	return t
}

// subWindow is the sub-window length statistics of a window of length d
// are grouped by: sub for an untraced run; for a traced one, slices of
// traceSlice, at most half the window, that alternate untraced and traced.
func subWindow(tr *tracer, sub, d time.Duration) time.Duration {
	if tr != nil {
		return min(traceSlice, d/2)
	}
	return sub
}

// tracedSlice says whether the sub-window holding offset is traced.
func tracedSlice(tr *tracer, off, sub time.Duration) bool {
	return tr != nil && int(off/sub)%2 == 1
}

// closedLoop runs maxConns() clients back to back for d. With a writer,
// the client that completes every writeEvery-th response inserts one stats
// document before its next request.
func closedLoop(w *serveWorld, cfg config, tr *tracer, check checker, seed int64, d time.Duration, writer *statsWriter) (*window, error) {
	var done atomic.Int64
	var wmu sync.Mutex
	var writeErr error
	clients := maxConns()
	sched, err := load.BuildSchedule(load.Config{
		Seed: seed, Mode: load.Closed, Dist: load.Zipf, Clients: clients,
		Requests: clients * 4096, Destinations: w.dests, ThinkMean: time.Nanosecond, Top: probeTop,
	})
	if err != nil {
		return nil, err
	}
	slo := cfg.slo()
	sub := subWindow(tr, subWindowLen, d)
	per := make([][]*subStat, clients)
	heap := startHeapSampler()
	alloc0 := allocatedBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			steps := sched.PerClient[c]
			var buf []byte
			var root active
			rootWin := -1
			prev := time.Now()
			for n := 0; ; n++ {
				now := time.Now()
				off := now.Sub(start)
				if off >= d {
					break
				}
				t := tr
				if !tracedSlice(tr, off, sub) {
					t = nil
				}
				if win := int(off / sub); win != rootWin {
					root.end()
					root, rootWin = t.group("load.client", 0), win
				}
				dest := steps[n%len(steps)].Dest
				url, _ := requestURL(w.lb.URL, n, dest)
				reqID := t.newRequestID()
				a := t.startAt("http.request", root.id, reqID, now)
				var cl call
				cl, buf = do(w.client, http.MethodGet, url, nil, reqID, buf)
				a.endAt(cl.done)
				// Checking and recording answers, the request's span too, is
				// the generator's own stage from the moment the answer is in.
				sp := t.startAt("bench.check", root.id, "", cl.done)
				s := sample{origin: off, lat: cl.done.Sub(now), late: now.Sub(prev), status: cl.status, traced: t != nil}
				if ok2xx(cl.status) {
					s.bad = check(n, dest, cl.body)
				}
				statAt(&per[c], int(off/sub)).add(s, slo)
				sp.end()
				if writer != nil {
					if k := done.Add(1); k%writeEvery == 0 {
						wmu.Lock()
						sp := t.start("docdb.insert", root.id)
						err := writer.insert(int(k / writeEvery))
						sp.end()
						if err != nil && writeErr == nil {
							writeErr = err
						}
						wmu.Unlock()
					}
				}
				prev = time.Now()
			}
			root.end()
		}(c)
	}
	wg.Wait()
	win := &window{alloc: allocatedBytes() - alloc0, heapMB: heap.stop()}
	for _, subs := range per {
		for i, st := range subs {
			statAt(&win.subs, i).merge(st)
		}
	}
	win.setSpans(sub, d)
	return win, writeErr
}

func runServe(cfg config, writes bool) (*result, error) {
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []setupTimes
	var wins []*window
	var counts cluster.Stats // router counter deltas over the windows
	var w *serveWorld
	for c := 0; c < serveCycles; c++ {
		for i := 0; i < serveSetups; i++ {
			if w != nil {
				if err := w.close(); err != nil {
					return nil, err
				}
				w = nil // the old world must not be live in the next set-up's heap
			}
			var st setupTimes
			var err error
			runtime.GC() // every set-up starts from the same heap
			w, st, err = buildServe(cfg, tr)
			if err != nil {
				return nil, err
			}
			setups = append(setups, st)
		}
		var check checker = writeChecker
		if !writes {
			refs, err := references(w)
			if err != nil {
				return nil, err
			}
			check = readChecker(refs)
		}
		runtime.GC() // earlier set-ups' garbage must not count toward the peak
		before := w.router.Stats()
		var writer *statsWriter
		if writes {
			writer = newStatsWriter("w", w.db, w.dests, cfg.seed+int64(c))
		}
		win, err := closedLoop(w, cfg, tr, check, cfg.seed+int64(c), cfg.duration()/serveCycles, writer)
		if err != nil {
			return nil, err
		}
		after := w.router.Stats()
		checkServe(res, w, win.total(), before, after)
		addDelta(&counts, before, after)
		wins = append(wins, win)
	}
	defer w.close()

	if !cfg.trace {
		reportServe(res, setups, wins)
		return res, nil
	}
	scratch, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	pw := &probeWorld{topo: w.topo, net: w.net, daemon: w.daemon, db: w.db, dests: w.dests,
		scratch: scratch, seed: cfg.seed}
	if err := runProbes(context.Background(), tr, pw, res); err != nil {
		return nil, err
	}
	putClusterCounts(res, counts, cluster.Stats{})
	var rebuilds, folds, coalesced int64
	for _, sh := range counts.PerShard {
		rebuilds += sh.Rebuilds
		folds += sh.Folds
		coalesced += sh.Coalesced
	}
	res.put("selection.rebuilds", "count", float64(rebuilds), 1)
	res.put("selection.folds", "count", float64(folds), 1)
	res.put("selection.coalesced", "count", float64(coalesced), 1)
	var walls []phaseWall
	for _, st := range setups {
		walls = append(walls, st.wall)
	}
	putPhaseWalls(res, walls)
	total := &subStat{}
	var alloc uint64
	// The cost of a sub-window is its mean request latency.
	var costU, costT []float64
	for _, win := range wins {
		total.merge(win.total())
		alloc += win.alloc
		for _, st := range win.subs {
			if st.n == 0 {
				continue
			}
			cost := float64(st.latSum) / float64(st.n)
			if st.traced {
				costT = append(costT, cost)
			} else {
				costU = append(costU, cost)
			}
		}
	}
	res.put("load.late_ms", "ms", ms(time.Duration(percentile(total.late, 0.99))), len(total.late))
	res.put("alloc_kb_per_req", "KiB", float64(alloc)/1024/float64(max(total.n, 1)), total.n)
	if err := finishTrace(cfg, tr, res, costU, costT); err != nil {
		return nil, err
	}
	return res, nil
}

// addDelta adds the router counters accumulated between before and after
// to acc.
func addDelta(acc *cluster.Stats, before, after cluster.Stats) {
	acc.RequestsTotal += after.RequestsTotal - before.RequestsTotal
	acc.CacheHits += after.CacheHits - before.CacheHits
	acc.CacheMisses += after.CacheMisses - before.CacheMisses
	acc.ShedTotal += after.ShedTotal - before.ShedTotal
	acc.RateLimitedTotal += after.RateLimitedTotal - before.RateLimitedTotal
	if acc.PerShard == nil {
		acc.PerShard = make([]upin.ServingStats, len(after.PerShard))
	}
	for i := range after.PerShard {
		acc.PerShard[i].Rebuilds += after.PerShard[i].Rebuilds - before.PerShard[i].Rebuilds
		acc.PerShard[i].Folds += after.PerShard[i].Folds - before.PerShard[i].Folds
		acc.PerShard[i].Coalesced += after.PerShard[i].Coalesced - before.PerShard[i].Coalesced
	}
}

// checkServe checks every answer and reconciles the client tallies with
// the router's counters over the window.
func checkServe(res *result, w *serveWorld, t *subStat, before, after cluster.Stats) {
	transport, shed, limited := t.status[0], t.status[http.StatusServiceUnavailable], t.status[http.StatusTooManyRequests]
	res.attempted += t.n
	res.failed += t.n - t.ok
	if t.n == 0 {
		res.fail("no requests completed")
	}
	if t.ok != t.n {
		res.fail("%d of %d requests failed: statuses %v", t.n-t.ok, t.n, t.status)
	}
	if t.bads > 0 {
		res.fail("%d wrong answers, e.g. %v", t.bads, t.bad)
	}
	reqs := after.RequestsTotal - before.RequestsTotal
	lookups := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
	if int(reqs) != t.n-transport || int(lookups) != t.ok {
		res.fail("reconcile: router saw %d requests and %d cache lookups, clients %d sent and %d answered",
			reqs, lookups, t.n-transport, t.ok)
	}
	if int(after.ShedTotal-before.ShedTotal) != shed || int(after.RateLimitedTotal-before.RateLimitedTotal) != limited {
		res.fail("reconcile: router shed %d and rate-limited %d, clients saw %d and %d",
			after.ShedTotal-before.ShedTotal, after.RateLimitedTotal-before.RateLimitedTotal, shed, limited)
	}
	if got := w.lb.opened.Load(); got > int64(maxConns()) {
		res.fail("generator opened %d connections, limit %d", got, maxConns())
	}
}

// reportServe folds the set-ups and windows into the end-to-end metrics:
// medians over set-ups, over sub-windows for rate and latency, and over
// windows for the heap peak; whole-run shares for the fractions.
func reportServe(res *result, setups []setupTimes, wins []*window) {
	var total, fill, first []float64
	for _, st := range setups {
		total = append(total, st.total.Seconds())
		fill = append(fill, st.fill.Seconds())
		first = append(first, st.firstAnswer.Seconds())
	}
	k := len(setups)
	res.put("setup_s", "s", median(total), k)
	res.put("campaign_s", "s", median(fill), k)
	res.put("first_answer_s", "s", median(first), k)

	var rps, p50, p99, heap []float64
	latN := 0
	t := &subStat{}
	for _, win := range wins {
		heap = append(heap, win.heapMB)
		for _, st := range win.subs {
			t.merge(st)
			latN += len(st.lats)
			rps = append(rps, float64(st.ok)/st.span.Seconds())
			p50 = append(p50, ms(time.Duration(percentile(st.lats, 0.50))))
			p99 = append(p99, ms(time.Duration(percentile(st.lats, 0.99))))
		}
	}
	res.put("rps", "1/s", median(rps), len(rps))
	res.put("p50_ms", "ms", median(p50), latN)
	res.put("p99_ms", "ms", median(p99), latN)
	res.put("slo_ok_frac", "frac", float64(t.slo)/float64(max(t.n, 1)), t.n)
	res.put("ok_frac", "frac", float64(t.ok)/float64(max(t.n, 1)), t.n)
	res.put("heap_peak_mb", "MB", median(heap), len(heap))
}
