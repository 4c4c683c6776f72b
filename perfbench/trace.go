package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer;
// the program itself is not instrumented. A span has a name, start, end,
// the id of the span that caused it, and — for a served request — the
// request id that pairs the client span with the server span recorded by
// the handler wrapper. A span either names a layer call or groups the
// calls of one phase (a group span); a group's own time outside its
// children is time no layer claims. Spans are kept in memory and written
// out when the run ends.

// requestIDHeader carries the request id from the benchmark's client to
// its handler wrapper.
const requestIDHeader = "X-Request-ID"

// probeRoot names the root span of the layer probes; metrics prefer spans
// under pipeline roots and fall back to probe spans.
const probeRoot = "probe"

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Group  bool   `json:"group,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// call the same code with no overhead beyond a nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	reqs  atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; End records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	group  bool
	start  time.Time
}

// start opens a span for a layer call under parent (0 = root).
func (t *tracer) start(name string, parent int64) active {
	return t.startAt(name, parent, "", time.Now())
}

// group opens a group span: a phase whose children are the layer calls.
func (t *tracer) group(name string, parent int64) active {
	a := t.start(name, parent)
	a.group = true
	return a
}

// startAt opens a span that began at the given time, for spans whose
// start is a schedule rather than now (open-loop arrivals).
func (t *tracer) startAt(name string, parent int64, req string, at time.Time) active {
	if t == nil {
		return active{}
	}
	return active{t: t, id: t.next.Add(1), parent: parent, name: name, req: req, start: at}
}

// newRequestID mints the id that pairs a client span with its server span.
func (t *tracer) newRequestID() string {
	if t == nil {
		return ""
	}
	return "r" + strconv.FormatInt(t.reqs.Add(1), 10)
}

func (a active) end() { a.endAt(time.Now()) }

func (a active) endAt(at time.Time) {
	if a.t == nil {
		return
	}
	a.t.add(span{
		ID: a.id, Parent: a.parent, Name: a.name, Req: a.req, Group: a.group,
		Start: a.start.Sub(a.t.epoch).Nanoseconds(), End: at.Sub(a.t.epoch).Nanoseconds(),
	})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap returns a handler that records a server span named name around h
// for every request carrying a request id. With a nil tracer it returns h.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(requestIDHeader)
		if req == "" {
			h.ServeHTTP(w, r)
			return
		}
		a := t.startAt(name, 0, req, time.Now())
		h.ServeHTTP(w, r)
		a.end()
	})
}

// snapshot returns the recorded spans with server spans linked to the
// client span that carries the same request id.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	client := map[string]int64{}
	for _, s := range spans {
		if s.Req != "" && s.Parent != 0 {
			client[s.Req] = s.ID
		}
	}
	for i, s := range spans {
		if s.Req != "" && s.Parent == 0 {
			if id, ok := client[s.Req]; ok && id != s.ID {
				spans[i].Parent = id
			}
		}
	}
	return spans
}

// analysis is the decomposed view of a trace.
type analysis struct {
	spans []span
	byID  map[int64]int
	self  []time.Duration
	root  []int64 // root span id of each span
}

// analyze computes every span's self time (its duration minus the part of
// its interval covered by its children) and its root.
func analyze(spans []span) *analysis {
	a := &analysis{spans: spans, byID: make(map[int64]int, len(spans)),
		self: make([]time.Duration, len(spans)), root: make([]int64, len(spans))}
	for i, s := range spans {
		a.byID[s.ID] = i
	}
	children := map[int64][]int{}
	for i, s := range spans {
		if _, ok := a.byID[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		a.self[i] = s.dur() - covered(s, spans, children[s.ID])
	}
	for i := range spans {
		j := i
		for depth := 0; depth < 64; depth++ {
			p := spans[j].Parent
			k, ok := a.byID[p]
			if p == 0 || !ok {
				break
			}
			j = k
		}
		a.root[i] = spans[j].ID
	}
	return a
}

// covered returns how much of s's interval the union of the given child
// spans covers.
func covered(s span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int {
		if x.a < y.a {
			return -1
		}
		if x.a > y.a {
			return 1
		}
		return 0
	})
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	total += curB - curA
	return time.Duration(total)
}

func (a *analysis) isRoot(i int) bool { return a.root[i] == a.spans[i].ID }

func (a *analysis) underProbe(i int) bool {
	return a.spans[a.byID[a.root[i]]].Name == probeRoot
}

// durations returns the durations (or self times) of the spans with the
// given name, taken from pipeline spans when there are any and from probe
// spans otherwise.
func (a *analysis) durations(name string, self bool) []time.Duration {
	var pipe, probe []time.Duration
	for i, s := range a.spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self {
			d = a.self[i]
		}
		if a.underProbe(i) {
			probe = append(probe, d)
		} else {
			pipe = append(pipe, d)
		}
	}
	if len(pipe) > 0 {
		return pipe
	}
	return probe
}

// coverage relates the traced stages to the traced total over the
// pipeline's traces (probe traces are left out): the sum of the self times
// of every span that names a layer call, over the sum of root durations.
// A group span's self time — time its phase spends outside every layer
// call — is not staged. Coverage is 1 when the layer calls account for
// all of the traced time, below 1 by the share no layer call claims, and
// above 1 when layer calls overlap.
func (a *analysis) coverage() float64 {
	var total, staged time.Duration
	for i, s := range a.spans {
		if a.underProbe(i) {
			continue
		}
		if a.isRoot(i) {
			total += s.dur()
		}
		if !s.Group {
			staged += a.self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(staged) / float64(total)
}

// maxSpansWritten caps the trace file; the metrics are computed over all
// spans.
const maxSpansWritten = 100_000

// writeTrace writes the environment stamp and the spans (one JSON object
// per line) to path.
func writeTrace(path string, env envStamp, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	head := struct {
		Env     envStamp `json:"env"`
		Spans   int      `json:"spans"`
		Written int      `json:"written"`
	}{env, len(spans), min(len(spans), maxSpansWritten)}
	err = enc.Encode(head)
	for i := 0; err == nil && i < head.Written; i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
