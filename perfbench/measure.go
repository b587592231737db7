package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// meter measures one iteration: wall time, bytes allocated, GC work and
// the peak live heap. Work the benchmark does for itself inside the
// measured section (the correctness digest in fleet.Spec.Inspect) is cut
// out with pause/resume, so it counts in neither time nor allocation.
type meter struct {
	start     time.Time
	ms0       runtime.MemStats
	paused    time.Duration
	pausedB   uint64
	pauseAt   time.Time
	pauseMS   runtime.MemStats
	heap      heapWatch
	wall      time.Duration
	allocB    uint64
	gcCycles  uint32
	gcPauseNS uint64
	heapPeakB uint64
}

func (m *meter) begin() {
	runtime.ReadMemStats(&m.ms0)
	m.heap.start()
	m.start = time.Now()
}

func (m *meter) pause() {
	m.pauseAt = time.Now()
	runtime.ReadMemStats(&m.pauseMS)
}

func (m *meter) resume() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.pausedB += ms.TotalAlloc - m.pauseMS.TotalAlloc
	m.paused += time.Since(m.pauseAt)
}

// end closes the measured section; the result fields are valid after it.
func (m *meter) end() {
	m.wall = time.Since(m.start) - m.paused
	m.heapPeakB = m.heap.stop()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocB = ms.TotalAlloc - m.ms0.TotalAlloc - m.pausedB
	m.gcCycles = ms.NumGC - m.ms0.NumGC
	m.gcPauseNS = ms.PauseTotalNs - m.ms0.PauseTotalNs
}

// heapWatch records the peak live heap (the heap the collector marked
// reachable) over a window. A finalizer on a throwaway sentinel runs after
// every GC cycle and re-arms itself, so the watch costs nothing between
// collections and needs no polling goroutine.
type heapWatch struct {
	gen  atomic.Uint64
	peak atomic.Uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

type sentinel struct{ _ [32]byte }

func (w *heapWatch) start() {
	gen := w.gen.Add(1)
	w.peak.Store(0)
	w.arm(gen)
}

func (w *heapWatch) arm(gen uint64) {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		if w.gen.Load() != gen {
			return
		}
		w.observe(liveHeap())
		w.arm(gen)
	})
}

func (w *heapWatch) observe(v uint64) {
	for {
		p := w.peak.Load()
		if v <= p || w.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// stop ends the window and returns the peak. A window no collection fell
// into reports the live heap of the most recent cycle.
func (w *heapWatch) stop() uint64 {
	w.gen.Add(1)
	if p := w.peak.Load(); p > 0 {
		return p
	}
	return liveHeap()
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of the standard percentiles that has
// at least ten samples beyond it, and false when even the median has
// fewer (fewer than twenty samples).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, perMille := range []int{500, 900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best, ok = float64(perMille)/10, true
		}
	}
	return best, ok
}
