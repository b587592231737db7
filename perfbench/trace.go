package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tgsim/tgmod/internal/accounting"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// A span is one timed interval of an iteration: a kernel event handler,
// an engine pass, a tap call, a timed call into core or observatory.
// Spans nest through parent; the iteration's root span has parent -1.
// Times are nanoseconds since the iteration's origin.
type span struct {
	name   string
	metric string // per-layer metric its self time is credited to ("" = none)
	start  int64
	end    int64
	parent int32
	// handler marks kernel event handler spans.
	handler bool
}

// kernelLoop is the tracer's view of one kernel's event loop.
type kernelLoop struct {
	firstBefore int64 // first BeforeStep
	lastAfter   int64 // last AfterEvent
	firstEvent  int64 // first Event (the end of set-up)
	dispatch    int64 // loop time outside handlers, raw
	felOps      int64 // Σ OpProfiler.FELOp
	events      uint64
}

// recorder holds the spans and counters of one traced iteration. It is
// used only from the goroutine running the simulation.
type recorder struct {
	iter   int
	origin time.Time
	spans  []span
	stack  []int32
	loops  []kernelLoop
	counts map[string]float64
	// lastClose is when the most recent span ended.
	lastClose int64
	// inHandler is set while a kernel event handler runs.
	inHandler bool
}

func newRecorder(iter int) *recorder {
	r := &recorder{iter: iter, origin: time.Now(), counts: map[string]float64{}}
	r.open("iteration", "")
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) top() int32 {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

func (r *recorder) openAt(name, metric string, at int64) int32 {
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, metric: metric, start: at, end: -1, parent: r.top()})
	r.stack = append(r.stack, idx)
	return idx
}

func (r *recorder) open(name, metric string) int32 { return r.openAt(name, metric, r.now()) }

// closeAt ends the innermost open span, which must be idx.
func (r *recorder) closeAt(idx int32, at int64) {
	if r.top() != idx {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", r.spans[idx].name))
	}
	r.spans[idx].end = at
	r.stack = r.stack[:len(r.stack)-1]
	r.lastClose = at
}

func (r *recorder) close(idx int32) { r.closeAt(idx, r.now()) }

// timed runs fn inside a span.
func (r *recorder) timed(name, metric string, fn func()) {
	idx := r.open(name, metric)
	fn()
	r.close(idx)
}

func (r *recorder) add(name string, v float64) { r.counts[name] += v }

// finish closes the root span.
func (r *recorder) finish() { r.close(0) }

// handlerMetric maps a kernel event name to the per-layer metric its
// handler self time is credited to.
func handlerMetric(name string) string {
	switch {
	case name == "arrival-metasched":
		return "metasched.arrival_self_s"
	case strings.HasPrefix(name, "arrival-"):
		return "workload.arrival_self_s"
	case name == "ens-submit" || name == "replay-submit" || strings.HasPrefix(name, "delayed-start-"):
		return "workload.submit_self_s"
	case name == "job-end":
		return "sched.job_end_self_s"
	case name == "viz-end" || name == "resv-start" || strings.HasPrefix(name, "outage-") ||
		name == "nodes-restore" || name == "maint-announce":
		return "sched.other_self_s"
	case name == "acct-flush":
		return "accounting.flush_self_s"
	case strings.HasPrefix(name, "xfer-"):
		return "network.self_s"
	}
	return "other.self_s"
}

// kernelTracer is the traced run's kernel instrument: des.Tracer for the
// handler start, StepObserver for its end, OpProfiler for dispatch and
// FEL costs. One per kernel; it writes into the iteration's recorder.
type kernelTracer struct {
	rec     *recorder
	loop    int
	open    int32
	stepAt  int64
	started bool
}

func newKernelTracer(rec *recorder) *kernelTracer {
	rec.loops = append(rec.loops, kernelLoop{})
	return &kernelTracer{rec: rec, loop: len(rec.loops) - 1, open: -1}
}

func (t *kernelTracer) BeforeStep() {
	now := t.rec.now()
	l := &t.rec.loops[t.loop]
	if !t.started {
		t.started = true
		l.firstBefore = now
	} else {
		l.dispatch += now - l.lastAfter
	}
	t.stepAt = now
}

func (t *kernelTracer) Event(_ des.Time, name string) {
	now := t.rec.now()
	l := &t.rec.loops[t.loop]
	if l.events == 0 {
		l.firstEvent = now
	}
	l.events++
	l.dispatch += now - t.stepAt
	t.open = t.rec.openAt(name, handlerMetric(name), now)
	t.rec.spans[t.open].handler = true
	t.rec.inHandler = true
	switch {
	case name == "acct-flush":
		t.rec.add("accounting.flushes", 1)
	case name == "arrival-metasched":
	case strings.HasPrefix(name, "arrival-"):
		t.rec.add("workload.arrivals", 1)
	}
}

func (t *kernelTracer) AfterEvent(des.Time, string, int) {
	now := t.rec.now()
	t.rec.closeAt(t.open, now)
	t.rec.inHandler = false
	t.rec.loops[t.loop].lastAfter = now
}

func (t *kernelTracer) FELOp(d time.Duration) { t.rec.loops[t.loop].felOps += int64(d) }

// firstEvent is the untraced runs' only kernel instrument: it notes the
// wall time of the first event, the end of set-up, and nothing else.
type firstEvent struct{ at time.Time }

func (f *firstEvent) Event(des.Time, string) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
}

// tracedEngineName is the registry name of the wrapper engine traced runs
// schedule with.
const tracedEngineName = "perfbench-easy"

// activeRecorder is the recorder the wrapper engines of the current traced
// iteration write into. Engines are built by the sched registry, whose
// factories take no arguments, so it is handed over here.
var activeRecorder atomic.Pointer[recorder]

func init() {
	sched.RegisterEngine(tracedEngineName, func() sched.PolicyEngine {
		inner, err := sched.NewEngine("easy")
		if err != nil {
			panic(err)
		}
		return &tracedEngine{inner: inner, rec: activeRecorder.Load()}
	})
}

// tracedEngine delegates every call to the easy engine and times its
// scheduling passes. It reports the inner engine's name, so schedulers and
// their outputs cannot tell it apart from easy.
type tracedEngine struct {
	inner sched.PolicyEngine
	rec   *recorder
}

func (e *tracedEngine) Name() string                 { return e.inner.Name() }
func (e *tracedEngine) Push(j *job.Job)              { e.inner.Push(j) }
func (e *tracedEngine) PushFront(j *job.Job)         { e.inner.PushFront(j) }
func (e *tracedEngine) Len() int                     { return e.inner.Len() }
func (e *tracedEngine) Disrupted(s *sched.Scheduler) { e.inner.Disrupted(s) }

func (e *tracedEngine) JobFinished(s *sched.Scheduler, j *job.Job) { e.inner.JobFinished(s, j) }

// Queued is what the start estimator calls for every replan. Only calls
// from inside an event handler count: telemetry gauges also read the
// queue, when a push snapshot is rendered or registries are merged.
func (e *tracedEngine) Queued() []*job.Job {
	if e.rec.inHandler && e.rec.spans[e.rec.top()].metric != "observatory.push_tap_s" {
		e.rec.add("sched.replans", 1)
	}
	return e.inner.Queued()
}

func (e *tracedEngine) Schedule(s *sched.Scheduler) {
	before := e.inner.Len()
	idx := e.rec.open("engine-schedule", "sched.schedule_s")
	e.inner.Schedule(s)
	e.rec.close(idx)
	e.rec.add("sched.schedule_calls", 1)
	e.rec.add("sched.queue_depth_sum", float64(before))
	if started := before - e.inner.Len(); started > 0 {
		e.rec.add("sched.starts", float64(started))
	}
}

// EngineStats forwards the inner engine's counters.
func (e *tracedEngine) EngineStats() sched.EngineStats {
	if r, ok := e.inner.(interface{ EngineStats() sched.EngineStats }); ok {
		return r.EngineStats()
	}
	return sched.EngineStats{}
}

// accountingTap counts the records and wire bytes of every accounting
// packet a site ledger flushes. Its own time is a span of its own, so
// it is not charged to the flush.
func accountingTap(rec *recorder) scenario.Observer {
	return scenario.TapPackets(func(_ des.Time, p *accounting.Packet) {
		idx := rec.open("bench-tap", "trace.tap_s")
		rec.add("accounting.records", float64(len(p.Jobs)+len(p.Transfers)+len(p.GatewayAttrs)+len(p.Storage)))
		if data, err := p.Encode(); err == nil {
			rec.add("accounting.wire_bytes", float64(len(data)))
		}
		rec.close(idx)
	})
}

// timedObserver mounts inner and wraps the packet taps and the snapshot
// sink it attaches in spans credited to metric.
func timedObserver(rec *recorder, metric string, inner scenario.Observer) scenario.Observer {
	return scenario.ObserverFunc(func(a *scenario.Attachment) {
		var mine scenario.Attachment
		inner.Attach(&mine)
		for _, fn := range mine.Packets {
			fn := fn
			a.Packets = append(a.Packets, func(at des.Time, p *accounting.Packet) {
				idx := rec.open("push-packet", metric)
				fn(at, p)
				rec.close(idx)
			})
		}
		if sink := mine.Snapshots; sink != nil {
			prev := a.Snapshots
			a.Snapshots = func(s *telemetry.Snapshot) {
				if prev != nil {
					prev(s)
				}
				idx := rec.open("push-snapshot", metric)
				sink(s)
				rec.close(idx)
			}
		}
	})
}

// selfTimes returns each span's duration minus the durations of its
// direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// loopBalance returns, over every kernel loop of the iteration, the
// measured event-loop wall and the sum of the self times of the spans
// inside the loop plus the loop's dispatch time. The two agree when the
// span tree accounts for every nanosecond of the loop exactly once.
func loopBalance(rec *recorder) (wall, accounted, dispatch int64) {
	self := selfTimes(rec.spans)
	for _, l := range rec.loops {
		if l.events == 0 {
			continue
		}
		wall += l.lastAfter - l.firstBefore
		d := l.dispatch
		for i, s := range rec.spans {
			if s.start < l.firstBefore || s.end > l.lastAfter || s.end < 0 {
				continue
			}
			accounted += self[i]
			// A top-level span that is not a handler ran between
			// events, inside the raw dispatch window.
			if !s.handler && isLoopTop(rec, s) {
				d -= s.end - s.start
			}
		}
		dispatch += d
		accounted += d
	}
	return wall, accounted, dispatch
}

// isLoopTop reports whether s hangs directly off a span that encloses the
// whole loop (the iteration root or a fleet rep).
func isLoopTop(rec *recorder, s span) bool {
	if s.parent < 0 {
		return true
	}
	p := rec.spans[s.parent]
	return p.name == "iteration" || p.name == "rep"
}

// checkSpans verifies the span tree: every span is closed, every parent
// exists and was opened first, and no child extends past its parent.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d %q not closed", i, s.name)
		}
		if s.parent < 0 {
			if i != 0 {
				return fmt.Errorf("span %d %q has no parent", i, s.name)
			}
			continue
		}
		if int(s.parent) >= i {
			return fmt.Errorf("span %d %q: parent %d does not precede it", i, s.name, s.parent)
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d %q [%d,%d] extends past parent %q [%d,%d]",
				i, s.name, s.start, s.end, p.name, p.start, p.end)
		}
	}
	return nil
}

// writeSpans writes spans as tab-separated lines: iteration, id, parent,
// name, start and end in nanoseconds since the iteration began.
func writeSpans(w io.Writer, iter int, spans []span) error {
	bw := bufio.NewWriter(w)
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", iter, i, s.parent, s.name, s.start, s.end)
	}
	return bw.Flush()
}
