package main

import (
	"cmp"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile reads the nearest-rank p-quantile of unsorted values.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(int(p*float64(len(s))), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtime/metrics names read by the samplers: live heap objects (for the
// peak) and cumulative bytes allocated (for allocation per request).
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	heapAllocsMetric  = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 { return readMetric(heapAllocsMetric) }

// heapSampler tracks the peak live heap between start and stop by reading
// runtime/metrics (which does not stop the world) every few milliseconds.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	once  sync.Once

	mu   sync.Mutex
	peak uint64 // guarded by mu
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readMetric(heapObjectsMetric)
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// stop ends sampling, waits for the sampler to exit and returns the peak
// in MiB. Calling it again returns the same peak.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() { close(h.stopc) })
	<-h.done
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// cpuTime is the CPU time the process has used, user plus system, on all
// threads. The set-up and phase metrics use it instead of wall time: on a
// shared virtual machine the host takes CPU from the guest (steal time),
// which stretches wall time by whatever the neighbours do but is not
// counted here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) fails only on a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseWall is one set-up's or pipeline's phases in wall time. The bounded
// phase metrics are CPU time (see cpuTime); these per-layer companions show
// what CPU time cannot: waits such as an fsync, a lock or a back-off, and
// lost parallelism.
type phaseWall struct{ setup, campaign, firstAnswer time.Duration }

// putPhaseWalls records the median wall time of each phase.
func putPhaseWalls(res *result, walls []phaseWall) {
	var setup, camp, first []float64
	for _, w := range walls {
		setup = append(setup, w.setup.Seconds())
		camp = append(camp, w.campaign.Seconds())
		first = append(first, w.firstAnswer.Seconds())
	}
	res.put("wall.setup_s", "s", median(setup), len(walls))
	res.put("wall.campaign_s", "s", median(camp), len(walls))
	res.put("wall.first_answer_s", "s", median(first), len(walls))
}
