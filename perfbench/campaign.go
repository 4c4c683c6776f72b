package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/cliutil"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/experiments"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/selection"
	"github.com/upin/scionpath/internal/upin"
)

// The campaign workload is the paper's §6 pipeline at PaperScale over every
// reachable destination of the default world: from an empty on-disk
// database opened the way `testsuite --db` opens one, collect paths, run
// the campaign on 2 workers, close; then reopen (replay) and send one
// POST /api/intent per destination through upin.Server over loopback
// HTTP. One repetition is a whole pipeline; a run repeats it until the
// measured time is used up and reports medians over repetitions.

// campaignWorkers sizes the campaign engine for a 2-CPU machine.
const campaignWorkers = 2

// minCampaignReps keeps medians meaningful when one pipeline is slow.
const minCampaignReps = 4

// domainISDs is the UPIN domain every workload's explorer covers.
var domainISDs = []addr.ISD{16, 17, 19}

// campaignRep is one pipeline repetition's measurements.
type campaignRep struct {
	// setup, campaign and firstAnswer are process CPU time (see cpuTime);
	// wall holds the same phases in wall time, and pipeline is the wall
	// time of the whole repetition.
	setup, campaign, firstAnswer, pipeline time.Duration
	wall                                   phaseWall
	// answerPhase is the intent loop alone (firstAnswer minus reopen and
	// server construction); rps is successful intents over it.
	answerPhase time.Duration
	intents     []call
	late        []time.Duration
	allocBytes  uint64
	heapMB      float64
	report      measure.RunReport
	destIDs     []int
	reopened    int // stats documents in the reopened database
}

// campaignWorld is a finished pipeline kept open for the layer probes.
type campaignWorld struct {
	w  *cliutil.World
	db *docdb.DB
	// engine is the intent server's selection engine.
	engine *selection.Engine
}

func campaignOpts(ids []int) measure.RunOpts {
	sc := experiments.PaperScale
	opts := measure.RunOpts{
		Iterations:   sc.Iterations,
		Skip:         true, // collection is its own traced stage
		ServerIDs:    ids,
		PingCount:    sc.PingCount,
		PingInterval: sc.PingInterval,
		BwDuration:   sc.BwDuration,
	}
	opts.Campaign.Workers = campaignWorkers
	return opts
}

// reachableServers returns the ids of the catalogue servers the daemon can
// reach, in id order.
func reachableServers(w *cliutil.World) ([]int, error) {
	servers, err := measure.Servers(w.DB)
	if err != nil {
		return nil, err
	}
	ias := make([]addr.IA, len(servers))
	for i, s := range servers {
		ias[i] = s.Address.IA
	}
	reach := w.Daemon.Reachability(ias)
	var ids []int
	for _, s := range servers {
		if _, ok := reach.MinHopsByDest[s.Address.IA]; ok {
			ids = append(ids, s.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no reachable destination")
	}
	return ids, nil
}

// campaignOnce runs one pipeline repetition on a fresh database at dbPath.
// With keep set it returns the reopened world for the layer probes instead
// of closing it.
func campaignOnce(ctx context.Context, cfg config, tr *tracer, dbPath string, keep bool) (*campaignRep, *campaignWorld, error) {
	rep := &campaignRep{}
	heap := startHeapSampler()
	defer heap.stop()
	root := tr.group("pipeline", 0)
	t0, c0 := time.Now(), cpuTime()

	su := tr.group("setup", root.id)
	sp := tr.start("cliutil.newworld", su.id)
	w, err := cliutil.NewWorld(cfg.seed, dbPath, "")
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start("sciond.reachability", su.id)
	ids, err := reachableServers(w)
	sp.end()
	if err != nil {
		_ = w.Close() // the pipeline already failed; that error is reported
		return nil, nil, err
	}
	rep.destIDs = ids
	su.end()
	t1, c1 := time.Now(), cpuTime()

	cp := tr.group("campaign", root.id)
	sp = tr.start("measure.collect", cp.id)
	_, err = measure.CollectPaths(ctx, w.DB, w.Daemon, measure.CollectOpts{})
	sp.end()
	if err != nil {
		_ = w.Close() // the pipeline already failed; that error is reported
		return nil, nil, err
	}
	sp = tr.start("measure.run", cp.id)
	suite := &measure.Suite{DB: w.DB, Daemon: w.Daemon}
	rep.report, err = suite.Run(ctx, campaignOpts(ids))
	sp.end()
	if err != nil {
		_ = w.Close() // the pipeline already failed; that error is reported
		return nil, nil, err
	}
	sp = tr.start("docdb.close", cp.id)
	err = w.Close()
	sp.end()
	cp.end()
	if err != nil {
		return nil, nil, err
	}
	t2, c2 := time.Now(), cpuTime()

	fa := tr.group("first_answer", root.id)
	sp = tr.start("docdb.open", fa.id)
	db, err := docdb.Open(docdb.WithPath(dbPath))
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start("upin.build", fa.id)
	engine := selection.New(db, w.Topo)
	srv := upin.NewServer(db, w.Daemon, w.Net, engine, upin.NewDomainExplorer(w.Topo, domainISDs))
	lb := startLoopback(tr.wrap("upin.intent", srv))
	client := newClient(1)
	sp.end()
	t3 := time.Now()
	alloc0 := allocatedBytes()
	var buf []byte
	prev := t3
	for _, id := range ids {
		body := []byte(fmt.Sprintf(`{"server_id":%d,"objective":"latency"}`, id))
		reqID := tr.newRequestID()
		a := tr.startAt("http.request", fa.id, reqID, time.Now())
		var c call
		c, buf = do(client, http.MethodPost, lb.URL+"/api/intent", body, reqID, buf)
		a.endAt(c.done)
		c.body = append([]byte(nil), c.body...)
		rep.late = append(rep.late, c.sent.Sub(prev))
		prev = c.done
		rep.intents = append(rep.intents, c)
	}
	t4, c4 := time.Now(), cpuTime()
	rep.allocBytes = allocatedBytes() - alloc0
	fa.end()
	root.end()
	rep.setup, rep.campaign, rep.firstAnswer = c1-c0, c2-c1, c4-c2
	rep.wall = phaseWall{setup: t1.Sub(t0), campaign: t2.Sub(t1), firstAnswer: t4.Sub(t2)}
	rep.answerPhase, rep.pipeline = t4.Sub(t3), t4.Sub(t0)
	rep.heapMB = heap.stop()

	rep.reopened = db.Collection(measure.ColStats).Count()
	client.CloseIdleConnections()
	lb.Close()
	if keep {
		return rep, &campaignWorld{w: w, db: db, engine: engine}, nil
	}
	if err := srv.Close(); err != nil {
		return nil, nil, err
	}
	if err := db.Close(); err != nil {
		return nil, nil, err
	}
	return rep, nil, os.RemoveAll(dbPath)
}

// checkIntent validates one intent answer for destination id.
func checkIntent(c call, id int) error {
	if c.status != http.StatusOK {
		return fmt.Errorf("intent for server %d: status %d: %s", id, c.status, strings.TrimSpace(string(c.body)))
	}
	var resp upin.IntentResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		return fmt.Errorf("intent for server %d: %w", id, err)
	}
	if !strings.HasPrefix(resp.Decision.PathID, fmt.Sprintf("%d_", id)) || resp.Sequence == "" {
		return fmt.Errorf("intent for server %d: decision %q sequence %q", id, resp.Decision.PathID, resp.Sequence)
	}
	return nil
}

// checkRep verifies a repetition: every tested path stored, no failed or
// unresolved path, the reopened database holds exactly the stored
// statistics, and every intent answered.
func checkRep(res *result, rep *campaignRep, want *campaignRep) {
	r := rep.report
	cells := r.Iterations * r.Destinations
	res.attempted += cells + r.PathsTested + len(rep.intents)
	res.failed += r.Failures + r.UnresolvedPaths
	if r.Failures != 0 || r.UnresolvedPaths != 0 {
		res.fail("campaign: %d failures, %d unresolved paths", r.Failures, r.UnresolvedPaths)
	}
	if r.StatsStored != r.PathsTested || r.StatsStored == 0 {
		res.fail("campaign: stored %d stats for %d tested paths", r.StatsStored, r.PathsTested)
	}
	if rep.reopened != r.StatsStored {
		res.fail("reconcile: reopened database holds %d stats, campaign reported %d stored", rep.reopened, r.StatsStored)
	}
	if want != nil && (want.report.StatsStored != r.StatsStored || want.report.PathsTested != r.PathsTested) {
		res.fail("campaign: repetition stored %d/%d, first repetition %d/%d",
			r.StatsStored, r.PathsTested, want.report.StatsStored, want.report.PathsTested)
	}
	for i, c := range rep.intents {
		if err := checkIntent(c, rep.destIDs[i]); err != nil {
			res.failed++
			res.fail("%v", err)
		}
	}
}

func runCampaign(cfg config) (*result, error) {
	ctx := context.Background()
	res := newResult()
	scratch, err := os.MkdirTemp(cfg.outDir, "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(cfg.duration())
	var reps []*campaignRep
	var traced []bool
	for i := 0; i < minCampaignReps || time.Now().Before(deadline); i++ {
		// A traced run alternates untraced and traced repetitions, so the
		// difference between the two is the tracing overhead.
		useTrace := cfg.trace && i%2 == 1
		var t *tracer
		if useTrace {
			t = tr
		}
		runtime.GC() // every repetition starts from the same heap
		rep, _, err := campaignOnce(ctx, cfg, t, filepath.Join(scratch, fmt.Sprintf("rep%d.db", i)), false)
		if err != nil {
			return nil, err
		}
		var first *campaignRep
		if len(reps) > 0 {
			first = reps[0]
		}
		checkRep(res, rep, first)
		reps = append(reps, rep)
		traced = append(traced, useTrace)
	}
	if !cfg.trace {
		reportCampaign(cfg, res, reps)
		return res, nil
	}
	// The probes run on one more pipeline, kept open.
	rep, world, err := campaignOnce(ctx, cfg, nil, filepath.Join(scratch, "probe.db"), true)
	if err != nil {
		return nil, err
	}
	checkRep(res, rep, reps[0])
	defer world.db.Close()
	pw := &probeWorld{
		topo: world.w.Topo, net: world.w.Net, daemon: world.w.Daemon, db: world.db,
		dests: rep.destIDs, scratch: scratch, seed: cfg.seed,
	}
	if err := runProbes(ctx, tr, pw, res); err != nil {
		return nil, err
	}
	rebuilds, folds, coalesced := world.engine.Counters()
	res.put("measure.cells", "count", float64(rep.report.Iterations*rep.report.Destinations), 1)
	res.put("measure.paths_tested", "count", float64(rep.report.PathsTested), 1)
	res.put("docdb.records_replayed", "count", float64(rep.reopened), 1)
	res.put("selection.rebuilds", "count", float64(rebuilds), 1)
	res.put("selection.folds", "count", float64(folds), 1)
	res.put("selection.coalesced", "count", float64(coalesced), 1)
	var late []time.Duration
	var alloc uint64
	var intents int
	var pipeU, pipeT []float64
	var walls []phaseWall
	for i, r := range reps {
		late = append(late, r.late...)
		alloc += r.allocBytes
		intents += len(r.intents)
		if traced[i] {
			pipeT = append(pipeT, r.pipeline.Seconds())
		} else {
			pipeU = append(pipeU, r.pipeline.Seconds())
			walls = append(walls, r.wall)
		}
	}
	putPhaseWalls(res, walls)
	res.put("load.late_ms", "ms", ms(percentile(late, 0.99)), len(late))
	res.put("alloc_kb_per_req", "KiB", float64(alloc)/1024/float64(intents), intents)
	if err := finishTrace(cfg, tr, res, pipeU, pipeT); err != nil {
		return nil, err
	}
	return res, nil
}

// reportCampaign folds the repetitions into the end-to-end metrics:
// medians over repetitions, with the intent percentiles taken per
// repetition first (its 99th percentile is its slowest, cold intent).
func reportCampaign(cfg config, res *result, reps []*campaignRep) {
	var setup, camp, first, rps, heap, p50, p99 []float64
	slo := cfg.slo()
	sloN, n, latN := 0, 0, 0
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		camp = append(camp, r.campaign.Seconds())
		first = append(first, r.firstAnswer.Seconds())
		heap = append(heap, r.heapMB)
		var lats []time.Duration
		for _, c := range r.intents {
			n++
			if !ok2xx(c.status) {
				continue
			}
			lat := c.done.Sub(c.sent)
			lats = append(lats, lat)
			if lat <= slo {
				sloN++
			}
		}
		latN += len(lats)
		rps = append(rps, float64(len(lats))/r.answerPhase.Seconds())
		p50 = append(p50, ms(percentile(lats, 0.50)))
		p99 = append(p99, ms(percentile(lats, 0.99)))
	}
	k := len(reps)
	res.put("setup_s", "s", median(setup), k)
	res.put("campaign_s", "s", median(camp), k)
	res.put("first_answer_s", "s", median(first), k)
	res.put("rps", "1/s", median(rps), k)
	res.put("p50_ms", "ms", median(p50), latN)
	res.put("p99_ms", "ms", median(p99), latN)
	res.put("slo_ok_frac", "frac", float64(sloN)/float64(max(n, 1)), n)
	res.put("ok_frac", "frac", 1-float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	res.put("heap_peak_mb", "MB", median(heap), k)
}
