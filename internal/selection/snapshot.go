package selection

// Snapshot-based serving (see docs/SERVING.md). The engine's hot path —
// Select behind /api/paths and /api/intent — used to re-aggregate every
// path's full paths_stats history on every request, so latency grew with
// campaign size. Instead, the engine now publishes an immutable snapshot of
// per-path running aggregates via an atomic pointer:
//
//   - a Select at a current generation is a lock-free pointer load plus
//     per-request filtering/scoring — O(candidates), not O(stats docs);
//   - a Select at a stale generation refreshes first. Refresh is
//     incremental: only stats documents newer than the snapshot's
//     high-water timestamp_ms are folded (riding the ordered timestamp
//     index), and only into copies of the aggregates they touch — every
//     other aggregate is shared with the previous snapshot — so refresh
//     cost scales with the NEW documents and the paths they touch, not with
//     history or the catalogue;
//   - refreshes are single-flight: N concurrent requests at a stale
//     generation trigger exactly one rebuild, and while it runs, requests
//     that already have a previous snapshot are served that one (bounded
//     staleness — a response may lag by the writes that arrived since the
//     in-flight refresh began, but never blocks behind it).
//
// Correctness against the uncached engine is pinned by the randomized
// oracle in snapshot_test.go: cached Select results are deep-equal to
// selectUncached across interleavings of writes and reads.

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
)

// pathAgg is one path's running aggregate: identity and geo annotation
// computed once per rebuild, plus the metric sums an incremental refresh
// extends. The fold order is the collection's storage order both on rebuild
// and on incremental refresh, so the floating-point sums are bit-identical
// to the uncached per-path aggregation.
type pathAgg struct {
	// id carries the candidate's identity fields (PathID, ServerID, Hops,
	// ISDs, Sequence) and geo annotation; its metric fields stay zero.
	id Candidate
	// hops caches per-hop exclusion metadata so sovereignty filters are
	// pure hash-set probes at request time.
	hops []hopMeta
	// links/transit are the path's hop-level overlap keys (directed
	// AS-pair links and interior ASes, see pathset.go), computed once per
	// snapshot generation in rebuild and shared by every COW clone, so
	// SelectSet's penalty arithmetic is pure integer-set probes at request
	// time.
	links   []uint64
	transit []uint64

	samples                                  int
	latSum, mdevSum, lossSum, upSum, downSum float64
	latN, mdevN, lossN, upN, downN           int
}

// hopMeta is the request-time view of one traversed AS.
type hopMeta struct {
	ia       string // canonical IA rendering, matched against ExcludeASes
	country  string // lower-cased; valid only when known
	operator string // lower-cased; valid only when known
	known    bool   // the AS exists in the topology
}

// fold accumulates one stats document, mirroring Engine.aggregate exactly.
func (a *pathAgg) fold(d docdb.Document) {
	a.samples++
	if v, ok := num(d[measure.FAvgLatency]); ok {
		a.latSum += v
		a.latN++
	}
	if v, ok := num(d[measure.FMdev]); ok {
		a.mdevSum += v
		a.mdevN++
	}
	if v, ok := num(d[measure.FLoss]); ok {
		a.lossSum += v
		a.lossN++
	}
	if v, ok := num(d[measure.FBwUpMTU]); ok {
		a.upSum += v
		a.upN++
	}
	if v, ok := num(d[measure.FBwDownMTU]); ok {
		a.downSum += v
		a.downN++
	}
}

// candidate materialises the aggregate, with the same arithmetic (and so
// the same float results) as Engine.aggregate.
func (a *pathAgg) candidate() Candidate {
	c := a.id // identity + geo; slices are shared and must not be mutated
	c.Samples = a.samples
	if a.latN > 0 {
		c.AvgLatencyMs = a.latSum / float64(a.latN)
	} else {
		c.AvgLatencyMs = math.Inf(1) // never answered: infinitely slow
	}
	if a.mdevN > 0 {
		c.JitterMs = a.mdevSum / float64(a.mdevN)
	} else {
		c.JitterMs = math.Inf(1)
	}
	if a.lossN > 0 {
		c.AvgLossPct = a.lossSum / float64(a.lossN)
	}
	if a.upN > 0 {
		c.UpBps = a.upSum / float64(a.upN)
	}
	if a.downN > 0 {
		c.DownBps = a.downSum / float64(a.downN)
	}
	return c
}

// snapshot is one immutable, atomically-published view of the serving
// state. Readers never mutate it; refreshes build a new one and swap the
// pointer. An incremental refresh shares everything it does not fold into
// with its predecessor (see foldTarget).
type snapshot struct {
	pathsGen int64 // paths collection generation folded in
	statsGen int64 // stats collection generation folded in
	statsRW  int64 // stats RewriteGeneration folded in
	// highWater is the largest timestamp_ms folded; frontier lists the
	// stats _ids at exactly that timestamp, so the next incremental fold
	// (Gte highWater) can skip what it already counted.
	highWater int64
	frontier  map[string]struct{}
	// folded counts every stats document folded (including documents of
	// unknown paths). An incremental fold that ends with fewer folded
	// documents than the collection holds has missed an out-of-order write
	// below the high-water mark and falls back to a full rebuild.
	folded int

	servers map[int][]*pathAgg // per destination, in PathsForServer order
	// index locates each path's aggregate in servers. It depends only on
	// the paths catalogue, so every fold of one catalogue shares it.
	index map[string]aggRef
}

// aggRef is a path's position in snapshot.servers.
type aggRef struct {
	server int
	i      int32
}

// foldTarget is the aggregate table a refresh folds into. servers starts
// out as a shallow copy of base (nil base: servers owns everything, as on
// rebuild). The first fold into a path copies its destination's pointer
// slice, if servers still shares it with base, and the aggregate itself,
// so base is never written and everything no document touches stays
// shared with it.
type foldTarget struct {
	servers, base map[int][]*pathAgg
	index         map[string]aggRef
}

// at returns the aggregate to fold pathID's documents into, or nil for a
// path outside the table.
func (t foldTarget) at(pathID string) *pathAgg {
	ref, ok := t.index[pathID]
	if !ok {
		return nil
	}
	aggs := t.servers[ref.server]
	if t.base == nil {
		return aggs[ref.i]
	}
	shared := t.base[ref.server]
	if &aggs[0] == &shared[0] {
		aggs = slices.Clone(aggs)
		t.servers[ref.server] = aggs
	}
	if aggs[ref.i] == shared[ref.i] {
		cp := *aggs[ref.i] // sums copied; identity slices shared (immutable)
		aggs[ref.i] = &cp
	}
	return aggs[ref.i]
}

// refreshFlight is one in-progress snapshot refresh.
type refreshFlight struct {
	done chan struct{}
	snap *snapshot
	err  error
}

// SnapshotInfo describes the published serving snapshot, for health
// endpoints and tests (see docs/SERVING.md).
type SnapshotInfo struct {
	StatsGeneration int64
	PathsGeneration int64
	HighWaterMs     int64
	Paths           int
	StatsFolded     int
}

// SnapshotInfo returns the current snapshot's summary; ok is false before
// the first refresh.
func (e *Engine) SnapshotInfo() (SnapshotInfo, bool) {
	s := e.current.Load()
	if s == nil {
		return SnapshotInfo{}, false
	}
	return SnapshotInfo{
		StatsGeneration: s.statsGen,
		PathsGeneration: s.pathsGen,
		HighWaterMs:     s.highWater,
		Paths:           len(s.index),
		StatsFolded:     s.folded,
	}, true
}

// fresh reports whether the snapshot still matches the live collections.
func (e *Engine) fresh(s *snapshot) bool {
	return s.statsGen == e.stats.Generation() && s.pathsGen == e.paths.Generation()
}

// snapshotFor returns a serving snapshot, refreshing first when the backing
// collections have moved. The ctx matters only when this request ends up
// performing or waiting for a refresh.
func (e *Engine) snapshotFor(ctx context.Context) (*snapshot, error) {
	if s := e.current.Load(); s != nil && e.fresh(s) {
		return s, nil
	}
	return e.refresh(ctx)
}

// refresh elects one leader to rebuild or fold; concurrent callers that
// already have a previous snapshot are served it immediately (bounded
// staleness), and cold-start callers wait for the leader.
func (e *Engine) refresh(ctx context.Context) (*snapshot, error) {
	stale := e.current.Load()
	e.mu.Lock()
	if s := e.current.Load(); s != nil && e.fresh(s) {
		e.mu.Unlock()
		return s, nil // someone refreshed while we queued on the mutex
	}
	if f := e.inflight; f != nil {
		e.mu.Unlock()
		if stale != nil {
			e.coalesced.Add(1)
			return stale, nil
		}
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			return f.snap, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("selection: select cancelled: %w", ctx.Err())
		}
	}
	f := &refreshFlight{done: make(chan struct{})}
	e.inflight = f
	e.mu.Unlock()

	f.snap, f.err = e.rebuildOrFold(e.current.Load())
	if f.err == nil {
		e.current.Store(f.snap)
	}
	e.mu.Lock()
	e.inflight = nil
	e.mu.Unlock()
	close(f.done)
	return f.snap, f.err
}

// rebuildOrFold refreshes from prev: incrementally when the paths
// catalogue is unchanged and no stats document was rewritten or removed,
// from scratch otherwise.
func (e *Engine) rebuildOrFold(prev *snapshot) (*snapshot, error) {
	// Stamp the generations before reading any data: writes landing
	// mid-read get folded in but labelled stale, so the next request
	// revalidates (cheaply, finding nothing new) instead of a write being
	// silently attributed to an older generation.
	pathsGen := e.paths.Generation()
	statsGen := e.stats.Generation()
	statsRW := e.stats.RewriteGeneration()
	if prev != nil && prev.pathsGen == pathsGen && prev.statsRW == statsRW {
		if next := e.foldInto(prev, statsGen); next != nil {
			e.folds.Add(1)
			return next, nil
		}
		// A stats document arrived below the high-water mark (out-of-order
		// writer, e.g. a resumed parallel campaign): fall through.
	}
	snap, err := e.rebuild(pathsGen, statsGen, statsRW)
	if err == nil {
		e.rebuilds.Add(1)
	}
	return snap, err
}

// foldInto folds only the stats documents newer than prev's high-water
// mark into a copy-on-write successor of prev: the successor shares prev's
// path index, and its destination slices and aggregates until a document
// touches them. It returns nil when it detects that a document landed below
// the mark (the caller must rebuild).
func (e *Engine) foldInto(prev *snapshot, statsGen int64) *snapshot {
	next := &snapshot{
		pathsGen:  prev.pathsGen,
		statsGen:  statsGen,
		statsRW:   prev.statsRW,
		highWater: prev.highWater,
		servers:   maps.Clone(prev.servers),
		index:     prev.index,
	}

	// Count first, then fold: documents inserted between the two reads are
	// folded anyway and only make the check conservative (folded >= count).
	count := e.stats.Count()
	var filter docdb.Filter
	if prev.folded > 0 {
		filter = docdb.Gte(measure.FTimestamp, prev.highWater)
	}
	hw, atHW, folded := e.foldStats(foldTarget{next.servers, prev.servers, next.index},
		filter, prev.frontier, prev.highWater)
	next.folded = prev.folded + folded
	if next.folded < count {
		return nil // an out-of-order write slipped below the high-water mark
	}
	next.highWater = hw
	next.frontier = mergeFrontier(prev.frontier, prev.highWater, hw, atHW)
	return next
}

// rebuild computes a snapshot from scratch: decode the full paths
// catalogue, annotate it once, then fold the entire stats history in one
// storage-order pass.
func (e *Engine) rebuild(pathsGen, statsGen, statsRW int64) (*snapshot, error) {
	pds, err := measure.AllPaths(e.db)
	if err != nil {
		return nil, err
	}
	snap := &snapshot{
		pathsGen: pathsGen,
		statsGen: statsGen,
		statsRW:  statsRW,
		servers:  make(map[int][]*pathAgg),
		index:    make(map[string]aggRef, len(pds)),
	}
	for i := range pds {
		pd := &pds[i]
		if e.owns != nil && !e.owns(pd.ServerID) {
			// A sharded engine keeps only its own destinations: the
			// annotation below and every later COW clone scale with the
			// shard's share of the catalogue, not with the whole of it.
			// foldStats still counts the skipped paths' stats documents
			// (folded++ is unconditional), so the out-of-order-write
			// detection arithmetic in foldInto keeps working unchanged.
			continue
		}
		agg := &pathAgg{id: Candidate{
			PathID:   pd.ID,
			ServerID: pd.ServerID,
			Hops:     pd.Hops,
			ISDs:     pd.ISDs,
			Sequence: pd.Sequence,
		}}
		e.annotateGeo(&agg.id)
		agg.hops = e.hopMetas(pd.Sequence)
		agg.links, agg.transit = overlapKeys(agg.hops)
		snap.index[pd.ID] = aggRef{pd.ServerID, int32(len(snap.servers[pd.ServerID]))}
		snap.servers[pd.ServerID] = append(snap.servers[pd.ServerID], agg)
	}
	hw, atHW, folded := e.foldStats(foldTarget{servers: snap.servers, index: snap.index},
		nil, nil, math.MinInt64)
	snap.folded = folded
	snap.highWater = hw
	snap.frontier = make(map[string]struct{}, len(atHW))
	for _, id := range atHW {
		snap.frontier[id] = struct{}{}
	}
	return snap, nil
}

// foldStats streams matching stats documents zero-copy in storage order,
// folding each into its path aggregate in t and tracking the high-water
// timestamp. skip holds already-folded _ids at the previous high-water
// mark. It returns the new high-water mark, the _ids folded at it this
// pass, and how many documents were folded.
func (e *Engine) foldStats(t foldTarget, filter docdb.Filter,
	skip map[string]struct{}, highWater int64) (hw int64, atHW []string, folded int) {
	hw = highWater
	e.stats.ForEach(docdb.Query{Filter: filter}, func(d docdb.Document) bool {
		id := d.ID()
		if _, dup := skip[id]; dup {
			return true
		}
		if pid, ok := d[measure.FPathID].(string); ok {
			if agg := t.at(pid); agg != nil {
				agg.fold(d)
			}
		}
		folded++
		if ts, ok := num(d[measure.FTimestamp]); ok {
			switch t := int64(ts); {
			case t > hw:
				hw = t
				atHW = append(atHW[:0], id)
			case t == hw:
				atHW = append(atHW, id)
			}
		}
		return true
	})
	return hw, atHW, folded
}

// mergeFrontier computes the next frontier set: when the high-water mark
// advanced, only this pass's ids at the new mark matter; when it did not,
// the previous frontier still guards against re-folding.
func mergeFrontier(prev map[string]struct{}, prevHW, hw int64, atHW []string) map[string]struct{} {
	out := make(map[string]struct{}, len(atHW))
	if hw == prevHW {
		for id := range prev {
			out[id] = struct{}{}
		}
	}
	for _, id := range atHW {
		out[id] = struct{}{}
	}
	return out
}

// hopMetas precomputes the exclusion-filter view of a path's hops.
func (e *Engine) hopMetas(seq pathmgr.Sequence) []hopMeta {
	out := make([]hopMeta, len(seq))
	for i, pred := range seq {
		ia := addr.IA{ISD: pred.ISD, AS: pred.AS}
		hm := hopMeta{ia: ia.String()}
		if as := e.topo.AS(ia); as != nil {
			hm.known = true
			hm.country = strings.ToLower(as.Site.Country)
			hm.operator = strings.ToLower(as.Operator)
		}
		out[i] = hm
	}
	return out
}
