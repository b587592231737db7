package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tgsim/tgmod/internal/core"
	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/experiments"
	"github.com/tgsim/tgmod/internal/fleet"
	"github.com/tgsim/tgmod/internal/observatory"
	"github.com/tgsim/tgmod/internal/scenario"
	"github.com/tgsim/tgmod/internal/telemetry"
)

// Input pools. Every run makes whole passes over its workload's pool, so
// every run measures the same inputs; --seed picks where in the pool a
// pass starts. The anchors file holds the reference output of every seed
// the pools reach.
const (
	loadedPool     = 8  // loaded: scenario seeds 1..8
	fleetWindows   = 8  // quick-fleet, observatory: base seeds 1..8
	fleetReps      = 16 // reps per fleet, so quick seeds 1..23
	loadedHorizon  = 30 * des.Day
	readsPerSecond = 500 // observatory reader rate
)

// poolSeeds returns the seeds 1..n.
func poolSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// loadedConfig is the loaded workload's scenario: the standard mix at
// default rates on TG9 under easy with the default 14-day drain, over a
// 30-day horizon.
func loadedConfig(seed uint64) scenario.Config {
	cfg := scenario.DefaultConfig(seed)
	cfg.Horizon = loadedHorizon
	return cfg
}

// quickConfig is one quick-fleet rep's scenario; traced runs swap in the
// wrapper engine.
func quickConfig(seed uint64, traced bool) scenario.Config {
	opts := experiments.StandardOptions(experiments.Quick)
	if traced {
		opts = append(opts, scenario.WithPolicy(tracedEngineName))
	}
	return scenario.New(seed, opts...)
}

// result is what one iteration measured.
type result struct {
	input  int // index into the workload's pool
	m      meter
	run    time.Duration // whole iteration
	setup  time.Duration // run call to first kernel event, summed over reps
	loop   time.Duration // first event to end of run, summed over reps
	finish []float64     // ms: post-run tail (loaded, quick-fleet) or each Pusher.Finish (observatory)
	events uint64

	attempted, failed int
	readMS, lateMS    []float64

	rec   *recorder // traced iterations only; dropped once summarized
	trace traceSum
}

// fail counts one failed operation and says why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	warn(format, args...)
}

func warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// bench carries what every iteration needs.
type bench struct {
	work    string // scratch directory inside the checkout
	anchors anchorSet
	largest int // batch cores of TG9's largest machine
	// digested records the seeds whose export digest this run checked.
	digested map[string]bool
}

// loaded runs one scenario and the post-run classification and modality
// report tgsim prints.
func (b *bench) loaded(seed uint64, rec *recorder) *result {
	r := &result{attempted: 1}
	cfg := loadedConfig(seed)
	var first firstEvent
	if rec != nil {
		cfg.Policy = tracedEngineName
		cfg.Observers = append(cfg.Observers, scenario.TraceKernel(newKernelTracer(rec)), accountingTap(rec))
	} else {
		cfg.Observers = append(cfg.Observers, scenario.TraceKernel(&first))
	}
	r.m.begin()
	t0 := time.Now()
	res, err := scenario.Run(cfg)
	t1 := time.Now()
	var table bytes.Buffer
	if err == nil {
		classify := func() {
			cl := core.NewClassifier(core.Config{LargestCores: res.LargestCores})
			rep := core.BuildReport(res.Central, cl.Classify(res.Central))
			err = core.ModalityTable(rep).WriteText(&table)
		}
		if rec != nil {
			rec.timed("core.classify", "core.classify_s", classify)
		} else {
			classify()
		}
	}
	t2 := time.Now()
	r.m.end()
	r.run = t2.Sub(t0)
	r.finish = []float64{ms(t2.Sub(t1))}
	if err != nil {
		r.fail("loaded seed %d: %v", seed, err)
		return r
	}
	if rec != nil {
		first.at = rec.origin.Add(time.Duration(rec.loops[0].firstEvent))
		rec.add("core.classified_jobs", float64(len(res.Central.Jobs())))
		resultCounters(rec, res)
	}
	r.setup = first.at.Sub(t0)
	r.loop = t1.Sub(first.at)
	r.events = res.Kernel.Executed()
	if err := b.verify("loaded", seed, rec != nil, res); err != nil {
		r.fail("%v", err)
	}
	return r
}

// verify checks a run's output against its anchor.
// The export digest is taken the first time a run meets a seed, untraced
// and traced apart; later passes over the same seed compare jobs, NUs and
// events, which leaves more of the run's time for measuring.
func (b *bench) verify(scale string, seed uint64, traced bool, res *scenario.Result) error {
	key := fmt.Sprintf("%s/%d/%v", scale, seed, traced)
	if b.digested[key] {
		return b.anchors.check(scale, seed, anchor{
			Jobs: len(res.Central.Jobs()), NUs: res.Central.TotalNUs(), Events: res.Kernel.Executed(),
		}, false)
	}
	got, err := outputOf(res.Central, res.Kernel.Executed())
	if err != nil {
		return err
	}
	b.digested[key] = true
	return b.anchors.check(scale, seed, got, true)
}

// resultCounters records the per-layer counters a finished run exposes.
func resultCounters(rec *recorder, res *scenario.Result) {
	rec.add("metasched.routed", float64(res.Broker.Routed()))
	rec.add("metasched.coallocs", float64(res.Broker.CoAllocations()))
	rec.add("network.transfers", float64(res.Fabric.Completed()))
	if p := float64(res.Kernel.MaxPending()); p > rec.counts["des.fel_peak"] {
		rec.counts["des.fel_peak"] = p
	}
}

// push is the observatory side of a fleet: the daemon's ingest address
// and the live run the reader follows.
type push struct {
	addr  string
	dir   string
	live  atomic.Pointer[string]
	iter  int
	runs  []string
	ps    []*observatory.Pusher
	finMS []float64
}

// fleetRun runs a quick-scale fleet of consecutive seeds on one worker,
// pushing each rep to the daemon when p is set. The caller owns r.m and
// counts the failed reps it returns.
func (b *bench) fleetRun(r *result, base uint64, p *push, rec *recorder) (*fleet.Result, []bool) {
	obsStart := make([]time.Time, fleetReps)
	runStart := make([]time.Time, fleetReps)
	firsts := make([]*firstEvent, fleetReps)
	loops := make([]int, fleetReps)
	inspectAt := make([]time.Time, fleetReps)
	repSpans := make([]int32, fleetReps)
	failed := make([]bool, fleetReps)
	var windows time.Duration // Σ per-rep Observe-to-Inspect windows (traced)
	cfg := quickConfig(base, false)
	end := float64(cfg.Horizon + cfg.DrainTime)
	if p != nil {
		p.runs = make([]string, fleetReps)
		p.ps = make([]*observatory.Pusher, fleetReps)
	}
	closeRep := func() {
		if rec != nil && len(rec.stack) > 1 && rec.spans[rec.top()].name == "rep" {
			rec.close(rec.top())
		}
	}
	spec := fleet.Spec{
		Reps:     fleetReps,
		Parallel: 1,
		BaseSeed: base,
		Build:    func(seed uint64) scenario.Config { return quickConfig(seed, rec != nil) },
		Observe: func(i int, seed uint64, reg *telemetry.Registry) []scenario.Observer {
			obsStart[i] = time.Now()
			var obs []scenario.Observer
			if rec != nil {
				closeRep()
				repSpans[i] = rec.open("rep", "")
				kt := newKernelTracer(rec)
				loops[i] = kt.loop
				obs = append(obs, scenario.TraceKernel(kt), accountingTap(rec))
			} else {
				firsts[i] = &firstEvent{}
				obs = append(obs, scenario.TraceKernel(firsts[i]))
			}
			if p != nil {
				opts := observatory.DefaultPushOptions()
				opts.SpillPath = filepath.Join(p.dir, fmt.Sprintf("spill-r%02d", i))
				pu, err := observatory.DialPush(p.addr, observatory.Hello{
					Run:  fmt.Sprintf("it%02d-r%02d", p.iter, i),
					Seed: seed, LargestCores: b.largest, EndTimeS: end, Source: "perfbench",
				}, opts)
				if err != nil {
					failed[i] = true
					warn("observatory rep %d: dial: %v", i, err)
				} else {
					id := pu.RunID()
					p.runs[i], p.ps[i] = id, pu
					p.live.Store(&id)
					po := pu.Observer(reg)
					if rec != nil {
						po = timedObserver(rec, "observatory.push_tap_s", po)
					}
					obs = append(obs, po)
				}
			}
			runStart[i] = time.Now()
			return obs
		},
		Inspect: func(seed uint64, res *scenario.Result) any {
			i := int(seed - base)
			inspectAt[i] = time.Now()
			if rec != nil {
				l := rec.loops[loops[i]]
				gap := max(rec.lastClose, l.lastAfter)
				rec.closeAt(rec.openAt("core.classify", "core.classify_s", gap), rec.now())
				rec.add("core.classified_jobs", float64(len(res.Central.Jobs())))
				resultCounters(rec, res)
			}
			if p != nil && p.ps[i] != nil {
				var err error
				finish := func() { err = p.ps[i].Finish(end) }
				t := time.Now()
				if rec != nil {
					rec.timed("push-finish", "", finish)
				} else {
					finish()
				}
				p.finMS = append(p.finMS, ms(time.Since(t)))
				if err != nil {
					failed[i] = true
					warn("observatory rep %d: finish: %v", i, err)
				}
			}
			r.m.pause()
			if err := b.verify("quick", seed, rec != nil, res); err != nil {
				failed[i] = true
				warn("%v", err)
			}
			r.m.resume()
			if rec != nil {
				rec.close(repSpans[i])
				windows += time.Since(obsStart[i])
			}
			return nil
		},
	}
	fr, err := fleet.Run(spec)
	closeRep()
	if fr == nil {
		r.fail("fleet at seed %d: %v", base, err)
		return nil, failed
	}
	r.attempted += len(fr.Reps)
	for i, rep := range fr.Reps {
		if rep.Err != nil {
			failed[i] = true
			warn("rep seed %d: %v", rep.Seed, rep.Err)
			continue
		}
		var first time.Time
		if rec != nil {
			first = rec.origin.Add(time.Duration(rec.loops[loops[i]].firstEvent))
		} else {
			first = firsts[i].at
		}
		wall := time.Duration(rep.Wall * 1e9)
		setup := first.Sub(runStart[i])
		r.setup += setup + runStart[i].Sub(obsStart[i]) // push dial is set-up too
		r.loop += wall - setup
		r.events += rep.Events
		if p == nil && !inspectAt[i].IsZero() {
			// The fleet's post-run classification and mechanism report.
			r.finish = append(r.finish, ms(inspectAt[i].Sub(runStart[i].Add(wall))))
		}
	}
	if rec != nil {
		rec.add("fleet.merge_s", fr.Wall-windows.Seconds())
	}
	return fr, failed
}

// countFailed adds the failed reps to r.
func countFailed(r *result, failed []bool) {
	for _, f := range failed {
		if f {
			r.failed++
		}
	}
}

// quickFleet runs one window of the quick-scale fleet.
func (b *bench) quickFleet(base uint64, rec *recorder) *result {
	r := &result{}
	r.m.begin()
	_, failed := b.fleetRun(r, base, nil, rec)
	r.m.end()
	r.run = r.m.wall
	countFailed(r, failed)
	return r
}

// observatory runs one window of the quick-scale fleet pushing into a
// fresh in-process daemon while the open-loop reader scrapes it.
func (b *bench) observatory(iter int, base uint64, rec *recorder) *result {
	r := &result{}
	dir := filepath.Join(b.work, fmt.Sprintf("obsd-%d", iter))
	if err := os.RemoveAll(dir); err != nil {
		r.fail("observatory: %v", err)
		return r
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.fail("observatory: %v", err)
		return r
	}
	p := &push{dir: dir, iter: iter}

	r.m.begin()
	t0 := time.Now()
	d := observatory.NewDaemon(observatory.Config{
		WALDir:   filepath.Join(dir, "wal"),
		FinalDir: filepath.Join(dir, "final"),
	})
	addr, err := d.ListenIngest("127.0.0.1:0")
	var httpAddr string
	if err == nil {
		httpAddr, err = d.ServeConsole("127.0.0.1:0")
	}
	if err != nil {
		r.m.end()
		d.Close()
		r.fail("observatory: daemon start: %v", err)
		return r
	}
	p.addr = addr
	daemonSetup := time.Since(t0)
	rd := startReader(httpAddr, time.Second/readsPerSecond, &p.live)
	fr, failed := b.fleetRun(r, base, p, rec)
	r.m.end()
	rd.stop()
	r.run = r.m.wall
	r.setup += daemonSetup
	r.finish = p.finMS
	r.readMS, r.lateMS = rd.latMS, rd.lateMS
	r.attempted += len(rd.latMS)
	if rd.failed > 0 {
		r.failed += rd.failed
		warn("%d reads", rd.failed)
	}

	// The daemon's side of every rep must match the producer's.
	dm, err := scrape(httpAddr)
	if err != nil {
		r.fail("observatory: /metrics: %v", err)
	}
	if fr != nil {
		for i, rep := range fr.Reps {
			if p.ps[i] == nil {
				continue
			}
			if rep.Err != nil {
				p.ps[i].Abort() // Inspect, which finishes the push, never ran
				continue
			}
			if bad := checkPushed(d, p.runs[i], rep, p.ps[i], dm); bad != "" {
				failed[i] = true
				warn("observatory run %s: %s", p.runs[i], bad)
			}
		}
	}
	countFailed(r, failed)
	if err := d.Shutdown(5 * time.Second); err != nil {
		r.fail("observatory: shutdown: %v", err)
	}
	if rec != nil {
		for _, pu := range p.ps {
			if pu == nil {
				continue
			}
			st := pu.Stats()
			// Snapshots and Metrics count frames offered, SnapsDropped
			// those conflated away; the final frame is not counted.
			rec.add("observatory.frames", float64(st.Packets+st.Snapshots+st.Metrics-st.SnapsDropped+1))
			rec.add("observatory.bytes", float64(st.Bytes))
			rec.add("observatory.snaps_dropped", float64(st.SnapsDropped))
			rec.add("observatory.packets_lost", float64(st.PacketsLost))
			rec.add("observatory.reconnects", float64(st.Reconnects))
		}
		rec.add("observatory.daemon_frames", dm.frames)
		rec.add("observatory.daemon_bytes", dm.bytes)
		rec.add("observatory.backlog_peak", dm.backlogPeak)
		rec.add("stream.dropped", dm.dropped)
		rec.add("observatory.wal_bytes", float64(dirSize(filepath.Join(dir, "wal"))))
	}
	return r
}

// checkPushed compares one rep's daemon-side record with the producer's
// and returns what differs ("" when nothing does).
func checkPushed(d *observatory.Daemon, id string, rep fleet.Rep, pu *observatory.Pusher, dm daemonMetrics) string {
	if st := pu.Stats(); st.PacketsLost > 0 {
		return fmt.Sprintf("%d packets lost", st.PacketsLost)
	}
	if n := dm.runDropped[id]; n > 0 {
		return fmt.Sprintf("daemon inbox dropped %.0f records", n)
	}
	var want bytes.Buffer
	if err := core.ModalityTable(rep.Report).WriteText(&want); err != nil {
		return err.Error()
	}
	if got := d.RunReport(id); !bytes.Equal(got, want.Bytes()) {
		return "daemon report differs from the producer's modality table"
	}
	return ""
}

// daemonMetrics is what the daemon's /metrics page says about ingest.
type daemonMetrics struct {
	frames, bytes, backlogPeak, dropped float64
	runDropped                          map[string]float64
}

// scrape reads the daemon's tg_obsd_* meta-metrics.
func scrape(addr string) (daemonMetrics, error) {
	dm := daemonMetrics{runDropped: map[string]float64{}}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return dm, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dm, fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "tg_obsd_frames_total{"):
			dm.frames += v
		case name == "tg_obsd_bytes_total":
			dm.bytes += v
		case strings.HasPrefix(name, "tg_obsd_backlog_high_water{"):
			dm.backlogPeak = max(dm.backlogPeak, v)
		case strings.HasPrefix(name, "tg_obsd_dropped_total{run="):
			dm.dropped += v
			dm.runDropped[strings.Trim(strings.TrimPrefix(name, "tg_obsd_dropped_total{run="), `"}`)] += v
		}
	}
	return dm, sc.Err()
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
