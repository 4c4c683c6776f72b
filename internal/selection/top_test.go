package selection

//lint:deterministic fixed seeds; every pool, vector and request derives from the loop seed

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestTopMatchesSelectPrefix is the oracle for bounded ranking: on seeded
// pools with exact score ties (tie groups) and +Inf scores (paths that
// never answered), Top(k) must be deep-equal to Select()[:k] for every k in
// 1..n+1 and every objective, and Top(0) to Select().
func TestTopMatchesSelectPrefix(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for seed := int64(1); seed <= axiomSeeds; seed++ {
		pool := newAxiomPool(t, seed)
		e := pool.engine(t, nil)
		for _, obj := range axiomObjectives {
			req := Request{Objective: obj}
			all, err := e.Select(ctx, pool.sid, req)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= len(all)+1; k++ {
				got, err := e.Top(ctx, pool.sid, req, k)
				if err != nil {
					t.Fatal(err)
				}
				want := all
				if k > 0 && k < len(all) {
					want = all[:k]
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %v k=%d: Top %v != Select prefix %v",
						seed, obj, k, candidateIDs(got), candidateIDs(want))
				}
			}
		}
	}
}

// TestTopKMatchesFullSort checks the bounded heap on its own, at sizes the
// axiom pools do not reach: for random vectors dense in exact score ties
// and ±Inf, topK(k) must equal the first k entries of the fully sorted
// vector for every k.
func TestTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	scores := []float64{math.Inf(1), math.Inf(-1), 0, -1, 1, 2.5}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		rs := make([]ranked, n)
		for i := range rs {
			s := scores[r.Intn(len(scores))]
			if r.Intn(3) == 0 {
				s = r.Float64()
			}
			rs[i] = ranked{s, int32(i)}
		}
		r.Shuffle(n, func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		want := slices.Clone(rs)
		slices.SortFunc(want, cmpRanked)
		for k := 1; k <= n+1; k++ {
			got := topK(slices.Clone(rs), k)
			if w := want[:min(k, n)]; !slices.Equal(got, w) {
				t.Fatalf("trial %d n=%d k=%d:\n got %v\nwant %v", trial, n, k, got, w)
			}
		}
	}
}

// TestSelectSetMatchesReference pins the sort-free SelectSet to the
// sort-based assembly it replaced (referenceSelectSet below) on the axiom
// worlds: every objective, K=1..5, default and disabled penalties.
func TestSelectSetMatchesReference(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for seed := int64(1); seed <= axiomSeeds; seed++ {
		pool := newAxiomPool(t, seed)
		e := pool.engine(t, nil)
		for _, obj := range axiomObjectives {
			for _, pen := range [][2]float64{{0, 0}, {-1, -1}, {3, -1}} {
				for k := 1; k <= 5; k++ {
					req := SetRequest{Request: Request{Objective: obj}, K: k,
						LinkPenalty: pen[0], ASPenalty: pen[1]}
					got, err := e.SelectSet(ctx, pool.sid, req)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceSelectSet(t, e, pool.sid, req)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %v penalties %v K=%d:\n got %+v\nwant %+v",
							seed, obj, pen, k, got, want)
					}
				}
			}
		}
	}
}

func candidateIDs(cands []Candidate) []string {
	ids := make([]string, len(cands))
	for i, c := range cands {
		ids[i] = fmt.Sprintf("%s(%g)", c.PathID, c.Score)
	}
	return ids
}

// referenceSelectSet is the sort-based SelectSet: it materialises every
// candidate, sorts a rank vector best first (ties in catalogue order),
// normalizes from the sorted ends, and at each greedy step scans in rank
// order keeping the strictly cheapest — so the lowest rank wins cost ties.
func referenceSelectSet(t *testing.T, e *Engine, sid int, req SetRequest) PathSet {
	t.Helper()
	req = req.withDefaults()
	snap, err := e.snapshotFor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	creq := compileRequest(req.Request)
	var cands []Candidate
	var pool []*pathAgg
	for _, agg := range snap.servers[sid] {
		if agg.samples < creq.minSamples || !creq.passesHops(agg) {
			continue
		}
		cand := agg.candidate()
		if !passesPerformance(&cand, &req.Request) {
			continue
		}
		cand.Score = score(&cand, req.Objective)
		cands = append(cands, cand)
		pool = append(pool, agg)
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch sa, sb := cands[a].Score, cands[b].Score; {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	})
	lo, hi := cands[order[0]].Score, cands[order[0]].Score
	for _, ci := range order[1:] {
		if s := cands[ci].Score; !math.IsInf(s, 0) && s > hi {
			hi = s
		}
	}
	norm := make([]float64, len(cands))
	for i, c := range cands {
		switch {
		case math.IsInf(c.Score, 0):
			norm[i] = 2
		case hi-lo > 0:
			norm[i] = (c.Score - lo) / (hi - lo)
		}
	}
	usedLinks, usedAS := map[uint64]struct{}{}, map[uint64]struct{}{}
	taken := make([]bool, len(cands))
	var chosen []int
	for len(chosen) < min(req.K, len(cands)) {
		best, bestCost := -1, math.Inf(1)
		for _, ci := range order {
			if taken[ci] {
				continue
			}
			cost := norm[ci] +
				req.LinkPenalty*overlapFrac(pool[ci].links, usedLinks) +
				req.ASPenalty*overlapFrac(pool[ci].transit, usedAS)
			if cost < bestCost {
				best, bestCost = ci, cost
			}
		}
		taken[best] = true
		chosen = append(chosen, best)
		markUsed(usedLinks, pool[best].links)
		markUsed(usedAS, pool[best].transit)
	}

	set := PathSet{}
	linkUses, asUses := map[uint64]int{}, map[uint64]int{}
	totalLinks := 0
	for _, ci := range chosen {
		set.Paths = append(set.Paths, cands[ci])
		for _, k := range pool[ci].links {
			linkUses[k]++
			totalLinks++
		}
		for _, k := range pool[ci].transit {
			asUses[k]++
		}
	}
	for _, ci := range chosen {
		for _, k := range pool[ci].links {
			if linkUses[k] > 1 {
				set.SharedLinks++
			}
		}
		for _, k := range pool[ci].transit {
			if asUses[k] > 1 {
				set.SharedASes++
			}
		}
	}
	set.Disjointness = 1
	if totalLinks > 0 {
		set.Disjointness = 1 - float64(set.SharedLinks)/float64(totalLinks)
	}
	return set
}
