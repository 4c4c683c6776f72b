package selection

import (
	"context"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// deepCopy returns a copy of s that shares no aggregate, slice or map with
// it, so later writes to s's memory show up as a difference.
func deepCopy(s *snapshot) *snapshot {
	c := *s
	c.frontier = maps.Clone(s.frontier)
	c.index = maps.Clone(s.index)
	c.servers = make(map[int][]*pathAgg, len(s.servers))
	for sid, aggs := range s.servers {
		cp := make([]*pathAgg, len(aggs))
		for i, a := range aggs {
			v := *a
			cp[i] = &v
		}
		c.servers[sid] = cp
	}
	return &c
}

// TestFoldLeavesHeldSnapshotIntact: a snapshot a reader still holds is
// never written by the copy-on-write folds that succeed it. Readers scan
// the held snapshot while folds run (the race detector flags any shared
// write), and afterwards it is deep-equal to a copy taken before the
// first fold.
func TestFoldLeavesHeldSnapshotIntact(t *testing.T) {
	e, db, ids := collectedWorld(t, 13)
	w := newStatsWriter(t, db, 13)
	w.insertInOrder(t, 20)
	ctx := context.Background()
	if _, err := e.Select(ctx, ids[0], Request{}); err != nil {
		t.Fatal(err)
	}
	held := e.current.Load()
	want := deepCopy(held)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, aggs := range held.servers {
					rankAggs(aggs, &Request{})
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(13))
	const folds = 40
	for i := 0; i < folds; i++ {
		w.insertInOrder(t, 1+r.Intn(3))
		if _, err := e.Select(ctx, ids[r.Intn(len(ids))], Request{}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	if rebuilds, f, _ := e.Counters(); rebuilds != 1 || f != folds {
		t.Fatalf("rebuilds/folds = %d/%d, want 1/%d", rebuilds, f, folds)
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatal("a held snapshot changed under later folds")
	}
}

// TestFoldCopiesOnlyTouchedPaths pins the O(touched) fold: after a
// one-document fold, only that document's path has a new aggregate and
// only its destination a new pointer slice; every other aggregate and
// slice, and the path index, are the previous snapshot's own.
func TestFoldCopiesOnlyTouchedPaths(t *testing.T) {
	e, db, ids := collectedWorld(t, 17)
	w := newStatsWriter(t, db, 17)
	w.insertInOrder(t, 20)
	ctx := context.Background()
	if _, err := e.Select(ctx, ids[0], Request{}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		prev := e.current.Load()
		touched := w.pathIDs[w.r.Intn(len(w.pathIDs))]
		w.nowMs++
		w.insert(t, w.doc(touched, w.nowMs))
		if _, err := e.Select(ctx, ids[0], Request{}); err != nil {
			t.Fatal(err)
		}
		next := e.current.Load()
		if _, folds, _ := e.Counters(); folds != int64(round+1) {
			t.Fatalf("round %d: %d folds, want %d", round, folds, round+1)
		}
		if reflect.ValueOf(next.index).Pointer() != reflect.ValueOf(prev.index).Pointer() {
			t.Fatal("fold rebuilt the path index")
		}
		ref := prev.index[touched]
		for sid, aggs := range next.servers {
			old := prev.servers[sid]
			if shared := &aggs[0] == &old[0]; shared == (sid == ref.server) {
				t.Fatalf("round %d server %d: slice shared=%v, touched server %d",
					round, sid, shared, ref.server)
			}
			for i, a := range aggs {
				isTouched := sid == ref.server && int32(i) == ref.i
				if (a == old[i]) == isTouched {
					t.Fatalf("round %d path %s: aggregate shared=%v, touched=%v",
						round, a.id.PathID, a == old[i], isTouched)
				}
				if isTouched && a.samples != old[i].samples+1 {
					t.Fatalf("touched path folded %d -> %d samples", old[i].samples, a.samples)
				}
			}
		}
	}
}
