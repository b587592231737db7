package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testBench(t *testing.T) *bench {
	t.Helper()
	b, err := newBench("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnchorsCarryRoadmapQuick7(t *testing.T) {
	set, err := loadAnchors(anchorsFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.checkRoadmap(); err != nil {
		t.Fatal(err)
	}
}

// tracedIteration runs one traced iteration the way measure does.
func tracedIteration(b *bench, run func(*recorder) *result) (*result, *recorder) {
	rec := newRecorder(0)
	activeRecorder.Store(rec)
	defer activeRecorder.Store(nil)
	r := run(rec)
	rec.finish()
	return r, rec
}

// checkTrace applies the trace self-consistency checks to one iteration.
func checkTrace(t *testing.T, rec *recorder) {
	t.Helper()
	if err := checkSpans(rec.spans); err != nil {
		t.Fatal(err)
	}
	wall, accounted, dispatch := loopBalance(rec)
	if wall <= 0 || dispatch <= 0 {
		t.Fatalf("loop wall %d ns, dispatch %d ns: no kernel loop traced", wall, dispatch)
	}
	if diff := float64(wall-accounted) / float64(wall); diff > balanceTolerance || diff < -balanceTolerance {
		t.Fatalf("self times + dispatch = %d ns, event-loop wall %d ns (off by %.3f%%)",
			accounted, wall, 100*diff)
	}
	var handlers, engine int
	for _, s := range rec.spans {
		if s.handler {
			handlers++
		}
		if s.metric == "sched.schedule_s" {
			engine++
		}
	}
	if handlers == 0 || engine == 0 {
		t.Fatalf("%d handler spans, %d engine spans", handlers, engine)
	}
}

func TestTracedLoadedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two loaded scenarios")
	}
	b := testBench(t)
	plain := b.loaded(2, nil)
	traced, rec := tracedIteration(b, func(rec *recorder) *result { return b.loaded(2, rec) })
	if plain.failed != 0 || traced.failed != 0 {
		t.Fatalf("anchor check failed: untraced %d, traced %d", plain.failed, traced.failed)
	}
	if plain.events != traced.events {
		t.Fatalf("events: untraced %d, traced %d", plain.events, traced.events)
	}
	checkTrace(t, rec)
	if rec.counts["sched.replans"] == 0 || rec.counts["accounting.wire_bytes"] == 0 {
		t.Fatalf("counters missing: %v", rec.counts)
	}
}

func TestTracedObservatory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pushed quick fleet")
	}
	b := testBench(t)
	r, rec := tracedIteration(b, func(rec *recorder) *result { return b.observatory(0, 7, rec) })
	if r.failed != 0 {
		t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
	}
	if len(r.readMS) < 100 || len(r.finish) != fleetReps {
		t.Fatalf("%d reads, %d finishes", len(r.readMS), len(r.finish))
	}
	checkTrace(t, rec)
	var push, reps int
	for _, s := range rec.spans {
		if s.metric == "observatory.push_tap_s" {
			push++
		}
		if s.name == "rep" {
			reps++
		}
	}
	if push == 0 || reps != fleetReps {
		t.Fatalf("%d push tap spans, %d rep spans", push, reps)
	}
}

func TestCheckSpansRejectsBadTrees(t *testing.T) {
	good := []span{{name: "iteration", start: 0, end: 10, parent: -1}, {name: "a", start: 1, end: 5, parent: 0}}
	if err := checkSpans(good); err != nil {
		t.Fatal(err)
	}
	for name, spans := range map[string][]span{
		"overrun":  {{name: "iteration", start: 0, end: 10, parent: -1}, {name: "a", start: 1, end: 11, parent: 0}},
		"orphan":   {{name: "iteration", start: 0, end: 10, parent: -1}, {name: "a", start: 1, end: 5, parent: 7}},
		"unclosed": {{name: "iteration", start: 0, end: 10, parent: -1}, {name: "a", start: 1, end: -1, parent: 0}},
	} {
		if checkSpans(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A stalled read makes the reads due during the stall late; each is
// timed from its due time, so the stall shows in every one of them.
func TestReaderTimesFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(60 * time.Millisecond)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	var live atomic.Pointer[string]
	rd := startReader(strings.TrimPrefix(srv.URL, "http://"), 5*time.Millisecond, &live)
	time.Sleep(150 * time.Millisecond)
	rd.stop()
	if rd.failed != 0 || len(rd.latMS) < 10 {
		t.Fatalf("%d reads, %d failed", len(rd.latMS), rd.failed)
	}
	if rd.latMS[2] < 55 {
		t.Fatalf("stalled read took %.1f ms from its due time", rd.latMS[2])
	}
	// The read due 5 ms after the stalled one waited for it.
	if rd.lateMS[3] < 45 || rd.latMS[3] < 45 {
		t.Fatalf("read after the stall: %.1f ms late, %.1f ms latency", rd.lateMS[3], rd.latMS[3])
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail bool
	}{{19, 0, false}, {20, 50, true}, {100, 90, true}, {1000, 99, true}, {20000, 99.9, true}} {
		p, ok := tailPercentile(c.n)
		if ok != c.tail || (ok && p != c.p) {
			t.Errorf("n=%d: got p%g %v, want p%g %v", c.n, p, ok, c.p, c.tail)
		}
	}
}
