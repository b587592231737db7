package sched

import (
	"fmt"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/simrand"
)

// This file keeps the straightforward planner as a differential oracle for
// the optimized one: refBuildProfile subtracts every running job from a
// flat profile one insertion at a time, and refEarliestFit re-runs the
// binary search for every candidate start.

// refBuildProfile is the insert-per-job profile build over the running map.
func refBuildProfile(s *Scheduler) *profile {
	now := s.K.Now()
	p := newProfile(now, s.M.BatchCores())
	for _, r := range s.running {
		if r.j.QOS == job.QOSInteractive {
			continue
		}
		end := r.endsBy
		if end <= now {
			end = now + 1e-9
		}
		p.subtract(now, end, r.j.Cores)
	}
	for _, rv := range s.resvs {
		start := rv.start
		if start < now {
			start = now
		}
		if rv.end > start {
			p.subtract(start, rv.end, rv.cores)
		}
	}
	for _, l := range s.nodeLosses {
		start := l.start
		if start < now {
			start = now
		}
		if l.end > start {
			p.deduct(start, l.end, l.cores)
		}
	}
	for _, o := range s.outages {
		start := o.start
		if start < now {
			start = now
		}
		if o.end > start {
			p.capTo(start, o.end, 0)
		}
	}
	return p
}

// refFirstViolation returns the index of the first segment overlapping
// [start, end) whose free cores are below cores, or -1 when the rectangle
// fits.
func refFirstViolation(p *profile, start, end des.Time, cores int) int {
	for i := p.segmentIndex(start); i < len(p.points); i++ {
		if p.points[i].t >= end {
			break
		}
		if p.points[i].free < cores {
			return i
		}
	}
	return -1
}

// refEarliestFit is earliestFit with one binary search per candidate.
func refEarliestFit(p *profile, from des.Time, cores int, duration des.Time) (des.Time, bool) {
	if duration <= 0 {
		duration = 1
	}
	cand := from
	if cand < p.points[0].t {
		cand = p.points[0].t
	}
	for {
		v := refFirstViolation(p, cand, cand+duration, cores)
		if v < 0 {
			return cand, true
		}
		if v+1 >= len(p.points) {
			return 0, false
		}
		cand = p.points[v+1].t
	}
}

// sameSteps reports where two profiles differ as step functions: free
// cores at every breakpoint of either.
func sameSteps(a, b *profile) error {
	for _, q := range [2]*profile{a, b} {
		for _, pt := range q.points {
			if fa, fb := a.freeAt(pt.t), b.freeAt(pt.t); fa != fb {
				return fmt.Errorf("freeAt(%v) = %d, reference %d", pt.t, fa, fb)
			}
		}
	}
	return nil
}

// randomState fills s with a random running set, reservations, node
// losses, and outages at the kernel's current instant. Ends are drawn on a
// coarse grid so duplicates are common, and some fall at or before now to
// exercise the finish-pending sliver.
func randomState(r *simrand.Stream, s *Scheduler) {
	now := s.K.Now()
	capacity := s.M.BatchCores()
	offset := func(lo, hi int) des.Time { return now + des.Time(lo+r.Intn(hi-lo+1))*10 }
	left := capacity
	for n := r.Intn(24); n > 0 && left > 0; n-- {
		j := mkJob(1+r.Intn(left), 1, 1)
		if r.Bool(0.1) {
			j.QOS = job.QOSInteractive
		} else {
			left -= j.Cores
		}
		end := offset(-2, 30)
		if r.Bool(0.02) {
			end = des.Forever
		}
		s.track(&running{j: j, endsBy: end})
	}
	// Reservations are admitted like Reserve does: against what the
	// running set and earlier reservations leave free.
	acc := refBuildProfile(s)
	for n := r.Intn(4); n > 0; n-- {
		start := offset(-3, 25)
		end := start + des.Time(1+r.Intn(20))*10
		lo := start
		if lo < now {
			lo = now
		}
		if end <= lo {
			continue
		}
		if m := acc.minFree(lo, end); m > 0 {
			rv := &reservation{id: fmt.Sprint(n), cores: 1 + r.Intn(m), start: start, end: end}
			acc.subtract(lo, end, rv.cores)
			s.resvs = append(s.resvs, rv)
		}
	}
	for n := r.Intn(3); n > 0; n-- {
		start := offset(-5, 25)
		s.nodeLosses = append(s.nodeLosses, &capLoss{
			start: start, end: start + des.Time(1+r.Intn(15))*10, cores: 1 + r.Intn(capacity),
		})
	}
	for n := r.Intn(3); n > 0; n-- {
		start := offset(-5, 25)
		s.outages = append(s.outages, &outage{start: start, end: start + des.Time(1+r.Intn(15))*10})
	}
}

// TestProfileDifferential checks the end-ordered staircase build and the
// index-walking earliestFit against the reference implementations: random
// scheduler states and random subtract/deduct/capTo sequences must give
// the same step function, the same minFree, and the same earliestFit.
func TestProfileDifferential(t *testing.T) {
	const cases = 10000
	m := &grid.Machine{ID: "m", Site: "s", Nodes: 10, CoresPerNode: 8, VizNodes: 2} // 64 batch cores
	for c := 0; c < cases; c++ {
		r := simrand.New(uint64(c))
		k := des.New()
		now := des.Time(r.Intn(1000))
		if c%50 == 0 {
			// Far enough out that now+1e-9 rounds back to now: the sliver
			// vanishes and finish-pending jobs hold nothing.
			now = 1 << 25
		}
		k.RunUntil(now)
		s := NewWith(k, m, &easyEngine{})
		randomState(r, s)

		got, want := s.buildProfile(), refBuildProfile(s)
		check := func(stage string) {
			t.Helper()
			if err := sameSteps(got, want); err != nil {
				t.Fatalf("case %d %s: %v", c, stage, err)
			}
			for q := 0; q < 12; q++ {
				from := now + des.Time(r.Intn(400)-40)
				cores := 1 + r.Intn(m.BatchCores()+8)
				dur := des.Time(r.Intn(300))
				at, ok := got.earliestFit(from, cores, dur)
				rat, rok := refEarliestFit(got, from, cores, dur)
				wat, wok := refEarliestFit(want, from, cores, dur)
				if at != rat || ok != rok || at != wat || ok != wok {
					t.Fatalf("case %d %s: earliestFit(%v,%d,%v) = %v,%v; reference %v,%v on same profile, %v,%v on reference build",
						c, stage, from, cores, dur, at, ok, rat, rok, wat, wok)
				}
				lo := from
				hi := lo + dur
				if gm, wm := got.minFree(lo, hi), want.minFree(lo, hi); gm != wm {
					t.Fatalf("case %d %s: minFree(%v,%v) = %d, reference %d", c, stage, lo, hi, gm, wm)
				}
			}
		}
		check("build")
		for op := r.Intn(6); op > 0; op-- {
			start := now + des.Time(r.Intn(300))
			end := start + des.Time(1+r.Intn(200))
			if r.Bool(0.1) {
				end = des.Forever
			}
			switch r.Intn(3) {
			case 0:
				if f := want.minFree(start, end); f > 0 {
					cores := 1 + r.Intn(f)
					got.subtract(start, end, cores)
					want.subtract(start, end, cores)
				}
			case 1:
				cores := 1 + r.Intn(m.BatchCores())
				got.deduct(start, end, cores)
				want.deduct(start, end, cores)
			default:
				limit := r.Intn(m.BatchCores())
				got.capTo(start, end, limit)
				want.capTo(start, end, limit)
			}
			check(fmt.Sprintf("op %d", op))
		}
	}
}

// checkEndOrder asserts the end-order invariant: byEnd holds exactly the
// non-interactive entries of running, sorted by endsBy.
func checkEndOrder(t *testing.T, s *Scheduler) {
	t.Helper()
	batch := 0
	for _, r := range s.running {
		if r.j.QOS != job.QOSInteractive {
			batch++
		}
	}
	if len(s.byEnd) != batch {
		t.Fatalf("end-ordered set has %d jobs, running has %d batch jobs", len(s.byEnd), batch)
	}
	for i, r := range s.byEnd {
		if s.running[r.j.ID] != r {
			t.Fatalf("end-ordered entry %d (job %d) is not in running", i, r.j.ID)
		}
		if i > 0 && s.byEnd[i-1].endsBy > r.endsBy {
			t.Fatalf("end-ordered set out of order at %d: %v after %v", i, r.endsBy, s.byEnd[i-1].endsBy)
		}
	}
}

// watchEndOrder checks the end-order invariant after every lifecycle
// transition of s (start, finish, walltime kill, preemption, kill) and
// returns the kinds it saw.
func watchEndOrder(t *testing.T, s *Scheduler) map[EventKind]int {
	seen := make(map[EventKind]int)
	s.Subscribe(func(e Event) {
		checkEndOrder(t, s)
		seen[e.Kind]++
	})
	return seen
}

// TestPlannerPassesDoNotAllocate pins the allocations-per-pass work
// counter at zero: once its buffers are warm, an EASY pass that starts
// nothing and an estimator replan that fits its buffer allocate nothing.
func TestPlannerPassesDoNotAllocate(t *testing.T) {
	k, s := newTestSched("easy")
	s.Submit(mkJob(60, 1000, 1000)) // runs; 52 cores stay free
	s.Submit(mkJob(112, 100, 100))  // head: shadow at 1000
	s.Submit(mkJob(40, 2000, 2000)) // too long to backfill
	s.Submit(mkJob(100, 500, 500))  // too wide to backfill
	if err := s.Reserve("r", 8, 1500, 1600); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleOutage(5000, 6000); err != nil {
		t.Fatal(err)
	}
	if s.RunningCount() != 1 || s.QueueLen() != 3 {
		t.Fatalf("setup: %d running, %d queued", s.RunningCount(), s.QueueLen())
	}
	s.reschedule()
	s.EstimateStart(8, 100)
	if n := testing.AllocsPerRun(200, s.reschedule); n != 0 {
		t.Errorf("EASY pass that starts nothing: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.EstimateStart(8, 100) }); n != 0 {
		t.Errorf("estimator replan: %v allocations, want 0", n)
	}
	if s.RunningCount() != 1 || s.QueueLen() != 3 {
		t.Fatalf("passes changed state: %d running, %d queued", s.RunningCount(), s.QueueLen())
	}
	k.Run()
}
