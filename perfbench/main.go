// Command perfbench is the repository's benchmark: a single-process
// harness that drives tgsim's packages through their public APIs on three
// workloads and reports end-to-end metrics (untraced runs) or per-module
// metrics (traced runs). See README.md.
//
//	bash perfbench/run.sh --workload loaded --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/tgsim/tgmod/internal/scenario"
)

// workload is one named benchmark workload: a pool of inputs and the
// iteration that runs one of them.
type workload struct {
	name   string
	inputs int
	iter   func(b *bench, k, input int, rec *recorder) *result
}

var workloads = []workload{
	{"loaded", loadedPool, func(b *bench, _, in int, rec *recorder) *result {
		return b.loaded(uint64(in+1), rec)
	}},
	{"quick-fleet", fleetWindows, func(b *bench, _, in int, rec *recorder) *result {
		return b.quickFleet(uint64(in+1), rec)
	}},
	{"observatory", fleetWindows, func(b *bench, k, in int, rec *recorder) *result {
		return b.observatory(k, uint64(in+1), rec)
	}},
}

// maxRun bounds a run's measuring time, whatever --seconds says.
const maxRun = 150 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: loaded, quick-fleet or observatory")
	seed := flag.Uint64("seed", 1, "seed: where in the input pool each pass starts")
	seconds := flag.Int("seconds", 40, "measuring time in seconds; a run makes the whole passes over the pool that fit")
	trace := flag.Int("trace", 0, "1 = traced run: per-module metrics")
	root := flag.String("root", ".", "root of the checkout (results go to .bench_build/perfbench)")
	regen := flag.Bool("regen-anchors", false, "rerun every pool seed and rewrite the anchors file")
	flag.Parse()

	srcDir := filepath.Join(*root, "perfbench")
	if *regen {
		return regenAnchors(filepath.Join(srcDir, anchorsFile))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b, err := newBench(*root, filepath.Join(*root, ".bench_build", "perfbench"))
	if err != nil {
		return err
	}

	rs := measure(b, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err := b.anchors.checkRoadmap(); err != nil {
		rs.correctErr = err
	}
	rec := rs.record(w.name, *seed, *seconds, *trace, *root)
	if err := rs.writeFiles(b.work, w.name, *seed, *trace, rec); err != nil {
		return err
	}
	rs.printSummary(os.Stderr)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rs.failed == 0 && rs.correctErr == nil, rs.attempted, rs.failed, rec.Metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// newBench loads the anchors of the checkout at root and prepares the
// scratch directory work.
func newBench(root, work string) (*bench, error) {
	anchors, err := loadAnchors(filepath.Join(root, "perfbench", anchorsFile))
	if err != nil {
		return nil, err
	}
	fed, err := scenario.TG9()
	if err != nil {
		return nil, err
	}
	b := &bench{work: work, anchors: anchors, digested: map[string]bool{}}
	for _, m := range fed.Machines() {
		b.largest = max(b.largest, m.BatchCores())
	}
	return b, os.MkdirAll(work, 0o755)
}

// runSet is everything one benchmark run measured.
type runSet struct {
	plain      []*result // untraced iterations
	traced     []*result // traced iterations, paired with plain by index
	passes     int
	attempted  int
	failed     int
	correctErr error
}

// measure makes as many whole passes over the workload's pool as fit in
// the measuring time, and at least one: it starts another pass only when
// the mean pass so far would end within the time. A traced run runs each
// input untraced and then traced.
func measure(b *bench, w *workload, seed uint64, seconds time.Duration, traced bool) *runSet {
	rs := &runSet{}
	start := time.Now()
	for {
		for j := 0; j < w.inputs; j++ {
			in := int((seed + uint64(j)) % uint64(w.inputs))
			runtime.GC()
			r := w.iter(b, len(rs.plain)+len(rs.traced), in, nil)
			r.input = in
			rs.add(r, false)
			if traced {
				rec := newRecorder(len(rs.traced))
				activeRecorder.Store(rec)
				runtime.GC()
				r := w.iter(b, len(rs.plain)+len(rs.traced), in, rec)
				rec.finish()
				activeRecorder.Store(nil)
				r.trace = summarizeTrace(rec)
				if n := len(rs.traced); n > 0 {
					rs.traced[n-1].rec = nil
				}
				r.rec = rec
				rs.add(r, true)
			}
		}
		rs.passes++
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(rs.passes) > min(seconds, maxRun) {
			return rs
		}
	}
}

func (rs *runSet) add(r *result, traced bool) {
	rs.attempted += r.attempted
	rs.failed += r.failed
	if traced {
		rs.traced = append(rs.traced, r)
	} else {
		rs.plain = append(rs.plain, r)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing summarizes one timing series: median, the highest percentile
// with at least ten samples beyond it, and the sample count.
type timing struct {
	Median float64  `json:"median"`
	Tail   *float64 `json:"tail,omitempty"`
	TailP  float64  `json:"tail_percentile,omitempty"`
	N      int      `json:"n"`
	Unit   string   `json:"unit"`
}

func summarize(xs []float64, unit string) timing {
	t := timing{Median: median(xs), N: len(xs), Unit: unit}
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		v := quantile(xs, p/100)
		t.Tail, t.TailP = &v, p
	}
	return t
}

// units of the end-to-end metrics and of the reader series in the run
// record.
var units = map[string]string{"setup_s": "s", "run_s": "s", "events_per_s": "1/s",
	"alloc_mb": "MB", "heap_peak_mb": "MB", "finish_ms": "ms", "read_ms": "ms", "read_late_ms": "ms"}

// endToEnd computes the end-to-end metrics from untraced iterations. Each
// metric's value is the mean over the pool's inputs of the input's median,
// so inputs of different sizes weigh the same in every run. The timings
// summarize all samples: median, tail percentile and count.
func endToEnd(rs []*result) (map[string]metric, map[string]timing) {
	type series struct {
		unit    string
		all     []float64
		byInput map[int][]float64
	}
	ser := map[string]*series{}
	add := func(name string, input int, vs ...float64) {
		s := ser[name]
		if s == nil {
			s = &series{unit: units[name], byInput: map[int][]float64{}}
			ser[name] = s
		}
		s.all = append(s.all, vs...)
		s.byInput[input] = append(s.byInput[input], vs...)
	}
	for _, r := range rs {
		add("setup_s", r.input, r.setup.Seconds())
		add("run_s", r.input, r.run.Seconds())
		if r.loop > 0 {
			add("events_per_s", r.input, float64(r.events)/r.loop.Seconds())
		}
		add("alloc_mb", r.input, float64(r.m.allocB)/1e6)
		add("heap_peak_mb", r.input, float64(r.m.heapPeakB)/1e6)
		add("finish_ms", r.input, r.finish...)
		if len(r.readMS) > 0 {
			add("read_ms", r.input, r.readMS...)
			add("read_late_ms", r.input, r.lateMS...)
		}
	}
	tim := map[string]timing{}
	for name, s := range ser {
		tim[name] = summarize(s.all, s.unit)
	}
	m := map[string]metric{}
	for _, name := range []string{"setup_s", "run_s", "events_per_s", "alloc_mb", "heap_peak_mb", "finish_ms"} {
		s := ser[name]
		if s == nil { // no iteration got this far; the failures say why
			m[name] = metric{0, units[name]}
			continue
		}
		var sum float64
		for _, vs := range s.byInput {
			sum += median(vs)
		}
		m[name] = metric{sum / float64(len(s.byInput)), s.unit}
	}
	return m, tim
}

// traceSum is what one traced iteration contributes to the per-module
// metrics; the spans themselves are kept for the last traced iteration only.
type traceSum struct {
	sum       map[string]float64
	felPeak   float64
	loopWall  int64
	accounted int64
}

func summarizeTrace(rec *recorder) traceSum {
	ts := traceSum{sum: map[string]float64{}}
	for k, v := range rec.counts {
		if k == "des.fel_peak" {
			ts.felPeak = v
			continue
		}
		ts.sum[k] += v
	}
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		if s.metric != "" {
			ts.sum[s.metric] += float64(self[i]) / 1e9
		}
	}
	wall, acc, dispatch := loopBalance(rec)
	ts.loopWall, ts.accounted = wall, acc
	ts.sum["des.dispatch_s"] += float64(dispatch) / 1e9
	for _, l := range rec.loops {
		ts.sum["des.events"] += float64(l.events)
		ts.sum["des.fel_op_s"] += float64(l.felOps) / 1e9
	}
	return ts
}

// perLayer computes the per-module metrics of a traced run: span and
// counter metrics from the traced iterations, runtime and reader metrics
// from the untraced iteration paired with each.
func perLayer(rs *runSet) (map[string]metric, *balance) {
	n := float64(len(rs.traced))
	sum := map[string]float64{}
	var felPeak float64
	var loopWall, accounted int64
	for _, r := range rs.traced {
		for k, v := range r.trace.sum {
			sum[k] += v
		}
		felPeak = max(felPeak, r.trace.felPeak)
		loopWall += r.trace.loopWall
		accounted += r.trace.accounted
	}
	loop := float64(loopWall) / 1e9
	per := func(k string) float64 { return sum[k] / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var gcCycles, gcPause, reads []float64
	var lat, late []float64
	var overhead []float64
	for i, r := range rs.plain {
		gcCycles = append(gcCycles, float64(r.m.gcCycles))
		gcPause = append(gcPause, float64(r.m.gcPauseNS)/1e9)
		reads = append(reads, float64(len(r.readMS)))
		lat = append(lat, r.readMS...)
		late = append(late, r.lateMS...)
		if i < len(rs.traced) {
			overhead = append(overhead, rs.traced[i].run.Seconds()/r.run.Seconds())
		}
	}
	orZero := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, name := range []string{"des.dispatch_s", "des.fel_op_s",
		"workload.arrival_self_s", "workload.submit_self_s", "metasched.arrival_self_s",
		"sched.schedule_s", "sched.job_end_self_s", "sched.other_self_s",
		"accounting.flush_self_s", "core.classify_s", "fleet.merge_s", "network.self_s",
		"observatory.push_tap_s", "trace.tap_s"} {
		set(name, "s", per(name))
	}
	for _, name := range []string{"des.events", "workload.arrivals", "metasched.routed",
		"metasched.coallocs", "sched.schedule_calls", "sched.replans", "accounting.flushes",
		"accounting.records", "core.classified_jobs", "network.transfers", "observatory.frames",
		"observatory.snaps_dropped", "observatory.packets_lost", "observatory.reconnects",
		"observatory.daemon_frames", "observatory.backlog_peak", "stream.dropped"} {
		set(name, "count", per(name))
	}
	set("des.fel_peak", "count", felPeak)
	set("accounting.wire_bytes", "B", per("accounting.wire_bytes"))
	set("observatory.bytes", "B", per("observatory.bytes"))
	set("observatory.daemon_bytes", "B", per("observatory.daemon_bytes"))
	set("observatory.wal_bytes", "B", per("observatory.wal_bytes"))
	set("sched.starts_per_schedule", "ratio", ratio(sum["sched.starts"], sum["sched.schedule_calls"]))
	set("sched.replans_per_routed", "ratio", ratio(sum["sched.replans"], sum["metasched.routed"]))
	set("sched.queue_depth_mean", "jobs", ratio(sum["sched.queue_depth_sum"], sum["sched.schedule_calls"]))
	set("observatory.reads", "count", orZero(median(reads)))
	set("observatory.read_late_ms", "ms", orZero(median(late)))
	set("observatory.read_p50_ms", "ms", orZero(quantile(lat, 0.50)))
	set("observatory.read_p99_ms", "ms", orZero(quantile(lat, 0.99)))
	set("runtime.gc_cycles", "count", orZero(median(gcCycles)))
	set("runtime.gc_pause_s", "s", orZero(median(gcPause)))
	set("trace.loop_s", "s", loop/n)
	set("trace.planner_share", "ratio", ratio(sum["metasched.arrival_self_s"]+sum["sched.schedule_s"], loop))
	set("trace.flush_share", "ratio", ratio(sum["accounting.flush_self_s"], loop))
	set("trace.overhead", "ratio", orZero(median(overhead)))
	bal := &balance{LoopWallS: loop, AccountedS: float64(accounted) / 1e9, OtherSelfS: sum["other.self_s"]}
	if loopWall > 0 && math.Abs(float64(loopWall-accounted)) > balanceTolerance*float64(loopWall) {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: trace accounts for %.6f s of %.6f s of event-loop wall\n",
			bal.AccountedS, bal.LoopWallS)
	}
	return m, bal
}

// balanceTolerance bounds how far the self times plus dispatch may stray
// from the event-loop wall, as a share of it. Both sides are sums of the
// same clock readings, so the only slack is a span left out or counted
// twice; any real bookkeeping error is far larger than 0.1%.
const balanceTolerance = 0.001

// balance is the traced run's self-consistency record: the event-loop
// wall, the self times plus dispatch that account for it, and the self
// time of handlers no module claims (other.self_s), all summed over the
// traced iterations.
type balance struct {
	LoopWallS  float64 `json:"loop_wall_s"`
	AccountedS float64 `json:"accounted_s"`
	OtherSelfS float64 `json:"other_self_s"`
}

// runRecord is the file each run leaves under .bench_build/perfbench.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Revision   string            `json:"git_revision"`
	Passes     int               `json:"passes"`
	Iterations int               `json:"iterations"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Timings    map[string]timing `json:"timings"`
	Metrics    map[string]metric `json:"metrics"`
	ReadsPer   []int             `json:"reads_per_iteration,omitempty"`
	Balance    *balance          `json:"trace_balance,omitempty"`
	Iters      []iterRecord      `json:"iterations_untraced"`
}

// iterRecord is one untraced iteration as measured.
type iterRecord struct {
	Input    int       `json:"input"`
	RunS     float64   `json:"run_s"`
	SetupS   float64   `json:"setup_s"`
	LoopS    float64   `json:"loop_s"`
	Events   uint64    `json:"events"`
	AllocMB  float64   `json:"alloc_mb"`
	HeapMB   float64   `json:"heap_peak_mb"`
	FinishMS []float64 `json:"finish_ms"`
}

func (rs *runSet) record(name string, seed uint64, seconds, trace int, root string) runRecord {
	e2e, tim := endToEnd(rs.plain)
	rec := runRecord{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: gitRevision(root),
		Passes: rs.passes, Iterations: len(rs.plain), Attempted: rs.attempted, Failed: rs.failed,
		Timings: tim, Metrics: e2e,
	}
	for _, r := range rs.plain {
		if len(r.readMS) > 0 {
			rec.ReadsPer = append(rec.ReadsPer, len(r.readMS))
		}
		rec.Iters = append(rec.Iters, iterRecord{
			Input: r.input, RunS: r.run.Seconds(), SetupS: r.setup.Seconds(), LoopS: r.loop.Seconds(),
			Events: r.events, AllocMB: float64(r.m.allocB) / 1e6, HeapMB: float64(r.m.heapPeakB) / 1e6,
			FinishMS: r.finish,
		})
	}
	if trace == 1 {
		rec.Metrics, rec.Balance = perLayer(rs)
	}
	return rec
}

// writeFiles writes the run record and, for traced runs, the spans of the
// last traced iteration.
func (rs *runSet) writeFiles(dir, name string, seed uint64, trace int, rec runRecord) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(rs.traced) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.tsv")
	if err != nil {
		return err
	}
	last := rs.traced[len(rs.traced)-1].rec
	if err := writeSpans(f, last.iter, last.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (rs *runSet) printSummary(w *os.File) {
	_, tim := endToEnd(rs.plain)
	names := make([]string, 0, len(tim))
	for k := range tim {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %d passes, %d untraced + %d traced iterations, %d of %d operations failed\n",
		rs.passes, len(rs.plain), len(rs.traced), rs.failed, rs.attempted)
	for _, k := range names {
		t := tim[k]
		tail := "no tail percentile (fewer than 20 samples)"
		if t.Tail != nil {
			tail = fmt.Sprintf("p%g %.4g", t.TailP, *t.Tail)
		}
		fmt.Fprintf(w, "  %-14s median %.4g %s, %s, n=%d\n", k, t.Median, t.Unit, tail, t.N)
	}
	if rs.correctErr != nil {
		fmt.Fprintln(w, "perfbench:", rs.correctErr)
	}
}

// gitRevision reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
