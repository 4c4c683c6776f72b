package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/docdb"
	"github.com/upin/scionpath/internal/measure"
	"github.com/upin/scionpath/internal/sciond"
	"github.com/upin/scionpath/internal/simnet"
	"github.com/upin/scionpath/internal/topology"
	"github.com/upin/scionpath/internal/upin"
)

type fixture struct {
	topo      *topology.Topology
	net       *simnet.Network
	daemon    *sciond.Daemon
	db        *docdb.DB
	explorer  *upin.DomainExplorer
	serverIDs []int
}

// setup measures nServers destinations in the default SCIONLab world so
// the tier has several destinations to route.
func setup(t testing.TB, seed int64, nServers int) *fixture {
	t.Helper()
	topo := topology.DefaultWorld()
	net := simnet.New(topo, simnet.Options{Seed: seed})
	daemon, err := sciond.New(topo, net, topology.MyAS)
	if err != nil {
		t.Fatal(err)
	}
	db := docdb.MustOpen()
	if err := measure.SeedServers(db, topo); err != nil {
		t.Fatal(err)
	}
	servers, err := measure.Servers(db)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, nServers)
	// Lead with the in-domain AWS Ireland destination (intent tests need
	// a verifiable path), then fill with the catalogue head.
	for _, s := range servers {
		if s.Address.IA == topology.AWSIreland {
			ids = append(ids, s.ID)
		}
	}
	for _, s := range servers {
		if len(ids) >= nServers {
			break
		}
		if s.Address.IA != topology.AWSIreland {
			ids = append(ids, s.ID)
		}
	}
	suite := &measure.Suite{DB: db, Daemon: daemon}
	if _, err := suite.Run(context.Background(), measure.RunOpts{
		Iterations: 2, ServerIDs: ids,
		PingCount: 4, PingInterval: 5 * time.Millisecond,
		BwDuration: 200 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	explorer := upin.NewDomainExplorer(topo, []addr.ISD{16, 17, 19})
	return &fixture{topo: topo, net: net, daemon: daemon, db: db,
		explorer: explorer, serverIDs: ids}
}

func (f *fixture) router(cfg Config) *Router {
	return New(f.db, f.daemon, f.net, f.explorer, f.topo, cfg)
}

func get(t *testing.T, h http.Handler, path, client string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRendezvousPlacement(t *testing.T) {
	// Deterministic: the same destination always lands on the same shard.
	for dest := 1; dest <= 100; dest++ {
		if a, b := rendezvous(dest, 4), rendezvous(dest, 4); a != b {
			t.Fatalf("dest %d: placement not stable (%d vs %d)", dest, a, b)
		}
	}
	// Balanced: over 1000 destinations and 4 shards every shard owns a
	// reasonable share (FNV-64a spreads integer keys well).
	counts := make([]int, 4)
	for dest := 1; dest <= 1000; dest++ {
		counts[rendezvous(dest, 4)]++
	}
	for s, c := range counts {
		if c < 150 || c > 350 {
			t.Errorf("shard %d owns %d of 1000 destinations (want 150..350); all: %v",
				s, c, counts)
		}
	}
	// Minimal disruption: growing 4 -> 5 shards moves only destinations
	// whose maximum changed — everything else keeps its shard.
	moved := 0
	for dest := 1; dest <= 1000; dest++ {
		from, to := rendezvous(dest, 4), rendezvous(dest, 5)
		if from != to {
			moved++
			if to != 4 {
				t.Fatalf("dest %d moved %d -> %d, not to the new shard", dest, from, to)
			}
		}
	}
	if moved < 100 || moved > 350 {
		t.Errorf("adding a 5th shard moved %d of 1000 destinations, want ~200", moved)
	}
}

// TestShardedAnswersMatchSingle: the 4-shard tier serves byte-identical
// /api/paths answers to a single replica, for every measured destination.
func TestShardedAnswersMatchSingle(t *testing.T) {
	f := setup(t, 70, 3)
	single := f.router(Config{Shards: 1})
	tier := f.router(Config{Shards: 4})
	for _, id := range f.serverIDs {
		path := fmt.Sprintf("/api/paths?server=%d", id)
		a := get(t, single, path, "")
		b := get(t, tier, path, "")
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("server %d: single=%d tier=%d", id, a.Code, b.Code)
		}
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("server %d: sharded answer differs from single replica", id)
		}
	}
}

// TestResponseCache: a repeat GET is served from the shard cache, and a
// database write invalidates it.
func TestResponseCache(t *testing.T) {
	f := setup(t, 71, 2)
	tier := f.router(Config{Shards: 2, CacheEntries: 64})
	path := fmt.Sprintf("/api/paths?server=%d", f.serverIDs[0])

	first := get(t, tier, path, "")
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	second := get(t, tier, path, "")
	if second.Header().Get("X-Cache") != "hit" {
		t.Error("second identical GET not served from cache")
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached body differs from computed body")
	}
	st := tier.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// A stats write bumps the collection generation: the cache must not
	// serve the stale body.
	if err := f.db.Collection(measure.ColStats).Insert(docdb.Document{
		"_id": "cache-invalidation-probe", measure.FPathID: measure.PathID(f.serverIDs[0], 0),
		measure.FServerID: f.serverIDs[0], measure.FTimestamp: int64(1_900_000_000_000),
		measure.FLoss: 0.0, measure.FAvgLatency: 1.0, measure.FMdev: 0.1,
		measure.FBwUpMTU: 1e6, measure.FBwDownMTU: 1e6,
	}); err != nil {
		t.Fatal(err)
	}
	third := get(t, tier, path, "")
	if third.Header().Get("X-Cache") == "hit" {
		t.Error("GET after a write served from stale cache")
	}
	if bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("response did not change after the write reached the snapshot")
	}
}

// TestRateLimiter: the token bucket throttles one client without touching
// another, and refills over time.
func TestRateLimiter(t *testing.T) {
	l := newLimiter(1, 2) // 1 token/s, burst 2
	clock := time.Unix(1_700_000_000, 0)
	l.now = func() time.Time { return clock }

	if !l.allow("a") || !l.allow("a") {
		t.Fatal("burst of 2 rejected")
	}
	if l.allow("a") {
		t.Fatal("third immediate request admitted past burst")
	}
	if !l.allow("b") {
		t.Fatal("unrelated client throttled")
	}
	clock = clock.Add(1500 * time.Millisecond)
	if !l.allow("a") {
		t.Fatal("refilled token rejected")
	}
	if l.allow("a") {
		t.Fatal("partial refill granted a second token")
	}
}

// TestRateLimitEndToEnd: the router answers 429 with Retry-After once a
// client exhausts its bucket.
func TestRateLimitEndToEnd(t *testing.T) {
	f := setup(t, 72, 1)
	tier := f.router(Config{Shards: 2, RatePerSec: 0.001, Burst: 2})
	path := fmt.Sprintf("/api/paths?server=%d", f.serverIDs[0])
	for i := 0; i < 2; i++ {
		if rec := get(t, tier, path, "alice"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	rec := get(t, tier, path, "alice")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if rec2 := get(t, tier, path, "bob"); rec2.Code != http.StatusOK {
		t.Errorf("unrelated client got %d", rec2.Code)
	}
	if st := tier.Stats(); st.RateLimitedTotal != 1 {
		t.Errorf("rate_limited_total = %d, want 1", st.RateLimitedTotal)
	}
}

// TestGateAdmission: slots fill, the bounded queue holds one waiter, and
// everything beyond is shed.
func TestGateAdmission(t *testing.T) {
	g := newGate(1, 1, 50*time.Millisecond)
	rel1, ok := g.acquire()
	if !ok {
		t.Fatal("first acquire refused")
	}
	// Second arrival queues and times out (slot never freed).
	if _, ok := g.acquire(); ok {
		t.Fatal("second acquire admitted past MaxInflight=1")
	}
	// With the slot held and a waiter parked, a burst of arrivals is shed
	// immediately once the queue is full.
	done := make(chan bool)
	go func() {
		_, ok := g.acquire() // occupies the queue slot
		done <- ok
	}()
	for g.queuedNow() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, ok := g.acquire(); ok {
		t.Fatal("acquire admitted past the bounded queue")
	}
	rel1() // frees the slot: the parked waiter gets it
	if !<-done {
		t.Fatal("queued waiter was shed although a slot freed in time")
	}
	g2, ok := g.acquire()
	if ok {
		g2()
		t.Fatal("slot double-freed")
	}
}

// TestAdmissionEndToEnd: with zero queue and zero slots every request is
// shed with 503 + Retry-After, and the shed counter records it.
func TestAdmissionEndToEnd(t *testing.T) {
	f := setup(t, 73, 1)
	tier := f.router(Config{Shards: 1, MaxInflight: 1, QueueDepth: 1,
		QueueTimeout: 10 * time.Millisecond})
	// Occupy the only slot directly so a real request must queue and shed.
	release, ok := tier.gate.acquire()
	if !ok {
		t.Fatal("could not take the slot")
	}
	path := fmt.Sprintf("/api/paths?server=%d", f.serverIDs[0])
	rec := get(t, tier, path, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (queued then timed out)", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed response without Retry-After")
	}
	release()
	if rec := get(t, tier, path, ""); rec.Code != http.StatusOK {
		t.Fatalf("after slot freed: status %d", rec.Code)
	}
	if st := tier.Stats(); st.ShedTotal != 1 || st.UnavailableTotal != 1 {
		t.Errorf("shed=%d unavailable=%d, want 1/1", st.ShedTotal, st.UnavailableTotal)
	}
}

// TestIntentRouting: POST /api/intent routes on the body's server_id and
// the shard still reads the full body.
func TestIntentRouting(t *testing.T) {
	f := setup(t, 74, 1)
	tier := f.router(Config{Shards: 4})
	body, _ := json.Marshal(map[string]any{
		"server_id": f.serverIDs[0], "objective": "latency",
	})
	req := httptest.NewRequest(http.MethodPost, "/api/intent", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	tier.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp upin.IntentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Decision.PathID == "" {
		t.Error("intent decision missing path id")
	}
}

// TestClusterHealthStatsClose: tier endpoints aggregate across shards and
// Close turns the tier away cleanly.
func TestClusterHealthStatsClose(t *testing.T) {
	f := setup(t, 75, 2)
	tier := f.router(Config{Shards: 4})
	for _, id := range f.serverIDs {
		if rec := get(t, tier, fmt.Sprintf("/api/paths?server=%d", id), ""); rec.Code != http.StatusOK {
			t.Fatalf("server %d: %d", id, rec.Code)
		}
	}

	rec := get(t, tier, "/api/health", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("health status %d", rec.Code)
	}
	var health struct {
		Status   string `json:"status"`
		Shards   int    `json:"shards"`
		PerShard []any  `json:"per_shard"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Shards != 4 || len(health.PerShard) != 4 {
		t.Errorf("health: %+v", health)
	}

	rec = get(t, tier, "/api/stats", "")
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("stats: %+v", st)
	}
	var shardTotal int64
	for _, s := range st.PerShard {
		shardTotal += s.RequestsTotal
	}
	if shardTotal != int64(len(f.serverIDs)) {
		t.Errorf("shards served %d requests total, want %d", shardTotal, len(f.serverIDs))
	}

	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, tier, "/api/health", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-close health status %d, want 503", rec.Code)
	}
}

// TestIntentBodyCapThroughRouter: an oversized intent never reaches a
// replica's decoder whole, even though the router stitches its peek back
// in front of the unread tail. Within the cap the intent routes on its
// server_id and is served; past it the peek cannot route the body and the
// replica refuses it with 413.
func TestIntentBodyCapThroughRouter(t *testing.T) {
	f := setup(t, 77, 1)
	tier := f.router(Config{Shards: 4})
	intent := fmt.Sprintf(`{"server_id": %d}`, f.serverIDs[0])
	for _, c := range []struct {
		size     int
		wantCode int
	}{
		{upin.MaxIntentBytes, http.StatusOK},
		{upin.MaxIntentBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		body := strings.Repeat(" ", c.size-len(intent)) + intent
		req := httptest.NewRequest(http.MethodPost, "/api/intent", strings.NewReader(body))
		rec := httptest.NewRecorder()
		tier.ServeHTTP(rec, req)
		if rec.Code != c.wantCode {
			t.Errorf("%d-byte body: status %d, want %d (%s)", c.size, rec.Code, c.wantCode, rec.Body.Bytes())
		}
	}
}
