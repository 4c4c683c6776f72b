// Package selection implements the paper's user-facing path selection: the
// database of measured paths is "queried to provide users with the best
// possible path they can choose for reaching a specific destination, based
// on performance, geographic placement of devices traversed, and operators
// that run them" (§1). It corresponds to the UPIN Path Controller role
// (§2.1) applied to a SCION network.
package selection

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/topology"
)

// Objective is what the user optimises for.
type Objective int

const (
	// LowestLatency picks the path with the smallest mean RTT.
	LowestLatency Objective = iota
	// HighestBandwidth picks the path with the largest mean of the
	// up/down MTU bandwidths.
	HighestBandwidth
	// LowestLoss picks the path with the smallest mean loss.
	LowestLoss
	// MostStable picks the path with the smallest latency jitter (mdev),
	// the paper's streaming/VoIP criterion: "latency consistency is more
	// important than low latency values" (§6.1).
	MostStable
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case LowestLatency:
		return "lowest-latency"
	case HighestBandwidth:
		return "highest-bandwidth"
	case LowestLoss:
		return "lowest-loss"
	case MostStable:
		return "most-stable"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective parses the CLI spelling of an objective.
func ParseObjective(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "latency", "lowest-latency":
		return LowestLatency, nil
	case "bandwidth", "highest-bandwidth":
		return HighestBandwidth, nil
	case "loss", "lowest-loss":
		return LowestLoss, nil
	case "stable", "jitter", "most-stable":
		return MostStable, nil
	default:
		return 0, fmt.Errorf("selection: unknown objective %q", s)
	}
}

// Request is a user's path request: hard performance bounds, exclusions for
// geographic or sovereignty reasons, and an optimisation objective.
type Request struct {
	Objective Objective

	// Hard performance constraints; zero values mean unconstrained.
	MaxLatencyMs    float64
	MaxLossPct      float64
	MinBandwidthBps float64
	// MinUpBps/MinDownBps constrain one direction only (an uploader cares
	// about client->server, a media consumer about server->client).
	MinUpBps    float64
	MinDownBps  float64
	MaxJitterMs float64
	// MinSamples requires at least this many measurements per path before
	// trusting it (default 1).
	MinSamples int

	// Exclusions: a path is rejected if ANY traversed AS matches.
	ExcludeISDs      []string
	ExcludeASes      []string
	ExcludeCountries []string
	ExcludeOperators []string
}

// Candidate is one measured path with aggregated statistics and its rank.
type Candidate struct {
	PathID   string
	ServerID int
	Hops     int
	ISDs     []string
	Sequence pathmgr.Sequence

	Samples      int
	AvgLatencyMs float64
	JitterMs     float64
	AvgLossPct   float64
	// UpBps/DownBps are the mean achieved MTU-packet bandwidths.
	UpBps, DownBps float64

	// Score is the objective value used for ranking (lower is better).
	Score float64
	// Countries/Operators traversed (for explanation output).
	Countries []string
	Operators []string
}

// Engine answers path requests from the measurement database. It serves
// from an atomically-published snapshot of per-path aggregates (see
// snapshot.go and docs/SERVING.md), refreshed lazily when the backing
// collections' generations move.
type Engine struct {
	db    *docdb.DB
	topo  *topology.Topology
	paths *docdb.Collection
	stats *docdb.Collection
	// owns restricts the snapshot to the destinations this engine serves
	// (nil = all). A sharded serving tier gives every replica its own
	// owner-filtered engine, so each shard's snapshot carries — and each
	// refresh clones and annotates — only its share of the path catalogue.
	owns func(serverID int) bool

	// current is the published serving snapshot; nil until first refresh.
	current atomic.Pointer[snapshot]
	// rebuilds/folds/coalesced count full refreshes, incremental
	// refreshes, and requests served a stale-but-consistent snapshot while
	// another caller's refresh was in flight (tests, /api/stats).
	rebuilds  atomic.Int64
	folds     atomic.Int64
	coalesced atomic.Int64

	// mu guards the single-flight refresh slot below.
	mu       sync.Mutex
	inflight *refreshFlight
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithServerOwner restricts the engine's serving snapshot to destinations
// for which owns returns true. Select for a non-owned destination reports
// "no collected paths" — the caller (a shard router) must not send it
// there. The uncached oracle path is unaffected.
func WithServerOwner(owns func(serverID int) bool) Option {
	return func(e *Engine) { e.owns = owns }
}

// New returns an engine over the given database and topology. The stats
// collection gets a hash index on path_id (per-path aggregation on full
// rebuilds and in the uncached oracle) and an ordered index on
// timestamp_ms (incremental refresh folds only documents above the
// snapshot's high-water mark); the paths collection gets a hash index on
// server_id and an ordered index on path_index.
func New(db *docdb.DB, topo *topology.Topology, opts ...Option) *Engine {
	stats := db.Collection(measure.ColStats)
	stats.EnsureIndex(measure.FPathID)
	stats.EnsureSortedIndex(measure.FTimestamp)
	paths := db.Collection(measure.ColPaths)
	paths.EnsureIndex(measure.FServerID)
	paths.EnsureSortedIndex(measure.FPathIndex)
	e := &Engine{db: db, topo: topo, paths: paths, stats: stats}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Counters reports refresh activity since the engine was built: full
// rebuilds, incremental folds, and requests coalesced onto a stale
// snapshot while a refresh was in flight.
func (e *Engine) Counters() (rebuilds, folds, coalesced int64) {
	return e.rebuilds.Load(), e.folds.Load(), e.coalesced.Load()
}

// Select returns the candidate paths to a destination server satisfying the
// request, best first. Paths without measurements are skipped. The answer
// comes from the serving snapshot: when it is current this is a lock-free
// read plus per-request filtering; when stale, one caller refreshes while
// others are served the previous snapshot (bounded staleness, snapshot.go).
func (e *Engine) Select(ctx context.Context, serverID int, req Request) ([]Candidate, error) {
	return e.Top(ctx, serverID, req, 0)
}

// Top returns the k best candidates of Select, best first (k <= 0 = all of
// them); Top(k) is exactly Select()[:k]. Ranking works on a compact
// (score, catalogue index) vector and keeps only the k best in a bounded
// heap, so a miss materialises k Candidates, not one per catalogued path.
func (e *Engine) Top(ctx context.Context, serverID int, req Request, k int) ([]Candidate, error) {
	aggs, err := e.destination(ctx, serverID)
	if err != nil {
		return nil, err
	}
	best := topK(rankAggs(aggs, &req), k)
	out := make([]Candidate, len(best))
	for i, r := range best {
		out[i] = aggs[r.idx].candidate()
		out[i].Score = r.score
	}
	return out, nil
}

// destination returns the serving snapshot's aggregates for one
// destination, refreshing the snapshot first when it is stale.
func (e *Engine) destination(ctx context.Context, serverID int) ([]*pathAgg, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("selection: select cancelled: %w", err)
	}
	snap, err := e.snapshotFor(ctx)
	if err != nil {
		return nil, err
	}
	aggs := snap.servers[serverID]
	if len(aggs) == 0 {
		return nil, fmt.Errorf("selection: no collected paths for server %d", serverID)
	}
	return aggs, nil
}

// ranked is one candidate that passed the request's filters: its score and
// its index in the destination's catalogue slice. Ranking moves these
// 16-byte entries instead of 168-byte Candidates with six pointer-bearing
// fields.
type ranked struct {
	score float64
	idx   int32
}

// cmpRanked is the one total order every ranking uses: best (lowest) score
// first, ties broken by catalogue index.
func cmpRanked(a, b ranked) int {
	switch {
	case a.score < b.score:
		return -1
	case a.score > b.score:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// rankAggs filters and scores a destination's aggregates, in catalogue
// order.
func rankAggs(aggs []*pathAgg, req *Request) []ranked {
	creq := compileRequest(*req)
	out := make([]ranked, 0, len(aggs))
	for i, agg := range aggs {
		if agg.samples < creq.minSamples || !creq.passesHops(agg) {
			continue
		}
		cand := agg.candidate()
		if !passesPerformance(&cand, req) {
			continue
		}
		out = append(out, ranked{score(&cand, req.Objective), int32(i)})
	}
	return out
}

// topK returns the k best entries of rs in cmpRanked order (k <= 0 or
// k >= len(rs): all of them, fully sorted). It reorders rs in place: the
// first k slots serve as a max-heap holding the k best seen so far, so the
// worst of them is evicted in O(log k) and nothing else is allocated.
func topK(rs []ranked, k int) []ranked {
	if k <= 0 || k >= len(rs) {
		slices.SortFunc(rs, cmpRanked)
		return rs
	}
	h := rs[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, r := range rs[k:] {
		if cmpRanked(r, h[0]) < 0 {
			h[0] = r
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, cmpRanked)
	return h
}

// siftDown restores the max-heap property (worst entry at the root) below
// h[i].
func siftDown(h []ranked, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && cmpRanked(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// selectUncached is the pre-snapshot engine: it re-aggregates each path's
// full stats history on every call. It is kept as the oracle the snapshot
// path is verified against (snapshot_test.go) and as the baseline the
// serving benchmarks measure the cache's speedup from.
func (e *Engine) selectUncached(ctx context.Context, serverID int, req Request) ([]Candidate, error) {
	creq := compileRequest(req)
	pathDocs, err := measure.PathsForServer(e.db, serverID)
	if err != nil {
		return nil, err
	}
	if len(pathDocs) == 0 {
		return nil, fmt.Errorf("selection: no collected paths for server %d", serverID)
	}

	out := make([]Candidate, 0, len(pathDocs))
	order := make([]ranked, 0, len(pathDocs))
	for _, pd := range pathDocs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("selection: select cancelled: %w", err)
		}
		cand, ok := e.aggregate(pd)
		if !ok || cand.Samples < creq.minSamples {
			continue
		}
		if !e.passesExclusions(&cand, &creq) {
			continue
		}
		if !passesPerformance(&cand, &req) {
			continue
		}
		out = append(out, cand)
		order = append(order, ranked{score(&cand, req.Objective), int32(len(order))})
	}
	slices.SortFunc(order, cmpRanked)
	sorted := make([]Candidate, len(order))
	for i, r := range order {
		sorted[i] = out[r.idx]
		sorted[i].Score = r.score
	}
	return sorted, nil
}

// Best returns the single best candidate, or an error when no path
// satisfies the request.
func (e *Engine) Best(ctx context.Context, serverID int, req Request) (Candidate, error) {
	cands, err := e.Top(ctx, serverID, req, 1)
	if err != nil {
		return Candidate{}, err
	}
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("selection: no path to server %d satisfies the request", serverID)
	}
	return cands[0], nil
}

// aggregate folds the paths_stats documents of one path into a candidate.
// It streams them zero-copy with ForEach — only a handful of numeric fields
// are read per document, so cloning each one would be pure overhead.
func (e *Engine) aggregate(pd measure.PathDoc) (Candidate, bool) {
	cand := Candidate{
		PathID:   pd.ID,
		ServerID: pd.ServerID,
		Hops:     pd.Hops,
		ISDs:     pd.ISDs,
		Sequence: pd.Sequence,
	}
	var latSum, mdevSum, lossSum, upSum, downSum float64
	var latN, mdevN, lossN, upN, downN int
	cand.Samples = e.db.Collection(measure.ColStats).ForEach(docdb.Query{
		Filter: docdb.Eq(measure.FPathID, pd.ID),
	}, func(d docdb.Document) bool {
		if v, ok := num(d[measure.FAvgLatency]); ok {
			latSum += v
			latN++
		}
		if v, ok := num(d[measure.FMdev]); ok {
			mdevSum += v
			mdevN++
		}
		if v, ok := num(d[measure.FLoss]); ok {
			lossSum += v
			lossN++
		}
		if v, ok := num(d[measure.FBwUpMTU]); ok {
			upSum += v
			upN++
		}
		if v, ok := num(d[measure.FBwDownMTU]); ok {
			downSum += v
			downN++
		}
		return true
	})
	if cand.Samples == 0 {
		return cand, false
	}
	if latN > 0 {
		cand.AvgLatencyMs = latSum / float64(latN)
	} else {
		cand.AvgLatencyMs = math.Inf(1) // never answered: infinitely slow
	}
	if mdevN > 0 {
		cand.JitterMs = mdevSum / float64(mdevN)
	} else {
		cand.JitterMs = math.Inf(1)
	}
	if lossN > 0 {
		cand.AvgLossPct = lossSum / float64(lossN)
	}
	if upN > 0 {
		cand.UpBps = upSum / float64(upN)
	}
	if downN > 0 {
		cand.DownBps = downSum / float64(downN)
	}
	e.annotateGeo(&cand)
	return cand, true
}

// annotateGeo fills the traversed countries/operators from the topology.
func (e *Engine) annotateGeo(c *Candidate) {
	seenC, seenO := map[string]bool{}, map[string]bool{}
	for _, pred := range c.Sequence {
		ia := addr.IA{ISD: pred.ISD, AS: pred.AS}
		as := e.topo.AS(ia)
		if as == nil {
			continue
		}
		if !seenC[as.Site.Country] {
			seenC[as.Site.Country] = true
			c.Countries = append(c.Countries, as.Site.Country)
		}
		if !seenO[as.Operator] {
			seenO[as.Operator] = true
			c.Operators = append(c.Operators, as.Operator)
		}
	}
}

// compiledRequest holds the request's exclusion lists compiled into hash
// sets once per Select, instead of once per candidate.
type compiledRequest struct {
	minSamples int
	badISD     map[string]bool
	badAS      map[string]bool
	badCountry map[string]bool
	badOp      map[string]bool
}

func compileRequest(req Request) compiledRequest {
	cr := compiledRequest{minSamples: req.MinSamples}
	if cr.minSamples == 0 {
		cr.minSamples = 1
	}
	if len(req.ExcludeISDs) > 0 {
		cr.badISD = make(map[string]bool, len(req.ExcludeISDs))
		for _, isd := range req.ExcludeISDs {
			cr.badISD[isd] = true
		}
	}
	if len(req.ExcludeASes) > 0 {
		cr.badAS = make(map[string]bool, len(req.ExcludeASes))
		for _, a := range req.ExcludeASes {
			cr.badAS[a] = true
		}
	}
	if len(req.ExcludeCountries) > 0 {
		cr.badCountry = make(map[string]bool, len(req.ExcludeCountries))
		for _, cn := range req.ExcludeCountries {
			cr.badCountry[strings.ToLower(cn)] = true
		}
	}
	if len(req.ExcludeOperators) > 0 {
		cr.badOp = make(map[string]bool, len(req.ExcludeOperators))
		for _, op := range req.ExcludeOperators {
			cr.badOp[strings.ToLower(op)] = true
		}
	}
	return cr
}

// passesHops applies the sovereignty/geography filters to a cached
// aggregate using its precomputed hop metadata: no topology lookups, no
// case-folding at request time.
func (cr *compiledRequest) passesHops(a *pathAgg) bool {
	for _, traversed := range a.id.ISDs {
		if cr.badISD[traversed] {
			return false
		}
	}
	if len(cr.badAS) == 0 && len(cr.badCountry) == 0 && len(cr.badOp) == 0 {
		return true
	}
	for i := range a.hops {
		h := &a.hops[i]
		if cr.badAS[h.ia] {
			return false
		}
		if h.known && (cr.badCountry[h.country] || cr.badOp[h.operator]) {
			return false
		}
	}
	return true
}

// passesExclusions is passesHops for the uncached oracle: same filters,
// resolved against the live topology instead of cached hop metadata.
func (e *Engine) passesExclusions(c *Candidate, cr *compiledRequest) bool {
	for _, traversed := range c.ISDs {
		if cr.badISD[traversed] {
			return false
		}
	}
	if len(cr.badAS) == 0 && len(cr.badCountry) == 0 && len(cr.badOp) == 0 {
		return true
	}
	for _, pred := range c.Sequence {
		ia := addr.IA{ISD: pred.ISD, AS: pred.AS}
		if cr.badAS[ia.String()] {
			return false
		}
		as := e.topo.AS(ia)
		if as == nil {
			continue
		}
		if cr.badCountry[strings.ToLower(as.Site.Country)] || cr.badOp[strings.ToLower(as.Operator)] {
			return false
		}
	}
	return true
}

// passesPerformance applies the hard performance bounds. The request is
// passed by pointer: it carries four slice headers, and copying it per
// candidate showed up in the 5000-candidate Select profile.
func passesPerformance(c *Candidate, req *Request) bool {
	if req.MaxLatencyMs > 0 && !(c.AvgLatencyMs <= req.MaxLatencyMs) {
		return false
	}
	if req.MaxLossPct > 0 && c.AvgLossPct > req.MaxLossPct {
		return false
	}
	if req.MaxJitterMs > 0 && !(c.JitterMs <= req.MaxJitterMs) {
		return false
	}
	if req.MinBandwidthBps > 0 {
		if math.Min(c.UpBps, c.DownBps) < req.MinBandwidthBps {
			return false
		}
	}
	if req.MinUpBps > 0 && c.UpBps < req.MinUpBps {
		return false
	}
	if req.MinDownBps > 0 && c.DownBps < req.MinDownBps {
		return false
	}
	return true
}

// score maps a candidate to its ranking value (lower is better).
func score(c *Candidate, o Objective) float64 {
	switch o {
	case HighestBandwidth:
		return -(c.UpBps + c.DownBps) / 2
	case LowestLoss:
		// Loss first, latency as tie-breaker.
		return c.AvgLossPct*1e6 + c.AvgLatencyMs
	case MostStable:
		return c.JitterMs*1e3 + c.AvgLatencyMs
	default: // LowestLatency
		return c.AvgLatencyMs
	}
}

// Explain renders a human-readable justification for a candidate.
func Explain(c Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "path %s: %d hops, ISDs {%s}", c.PathID, c.Hops, strings.Join(c.ISDs, ","))
	if !math.IsInf(c.AvgLatencyMs, 1) {
		fmt.Fprintf(&b, ", avg latency %.1f ms (jitter %.2f ms)", c.AvgLatencyMs, c.JitterMs)
	}
	fmt.Fprintf(&b, ", loss %.1f%%", c.AvgLossPct)
	if c.UpBps > 0 || c.DownBps > 0 {
		fmt.Fprintf(&b, ", bw up/down %.1f/%.1f Mbps", c.UpBps/1e6, c.DownBps/1e6)
	}
	fmt.Fprintf(&b, ", via %s (%s), %d samples",
		strings.Join(c.Countries, ">"), strings.Join(c.Operators, ","), c.Samples)
	return b.String()
}

func num(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	default:
		return 0, false
	}
}
