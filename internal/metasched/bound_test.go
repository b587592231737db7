package metasched

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/grid"
	"github.com/tgsim/tgmod/internal/job"
	"github.com/tgsim/tgmod/internal/sched"
	"github.com/tgsim/tgmod/internal/simrand"
)

// This file keeps the unbounded broker selection as a differential oracle
// for the bounded one: naiveBestBy and naiveCoAssign estimate every
// candidate machine, where the broker skips those that cannot win.

// countingEngine wraps a policy engine and counts Queued calls. In these
// tests the start estimator is the only reader of the queue, once per
// call, so the count is the number of queue plans made.
type countingEngine struct {
	sched.PolicyEngine
	plans int
}

func (e *countingEngine) Queued() []*job.Job {
	e.plans++
	return e.PolicyEngine.Queued()
}

// countedScheduler builds a scheduler for m around a counting wrapper of
// the named engine.
func countedScheduler(k *des.Kernel, m *grid.Machine, engine string) (*sched.Scheduler, *countingEngine) {
	inner, err := sched.NewEngine(engine)
	if err != nil {
		panic(err)
	}
	e := &countingEngine{PolicyEngine: inner}
	return sched.NewWith(k, m, e), e
}

// plansBy sums the queue plans counted over engines.
func plansBy(engines []*countingEngine) int {
	n := 0
	for _, e := range engines {
		n += e.plans
	}
	return n
}

// naiveBestBy is bestBy without the bound: it estimates every candidate
// and also returns the winning score.
func naiveBestBy(cands []*sched.Scheduler, j *job.Job,
	score func(*sched.Scheduler, des.Time) float64) (*sched.Scheduler, float64) {
	best := cands[0]
	bestScore := 0.0
	first := true
	for _, s := range cands {
		start, ok := s.EstimateStart(j.Cores, j.ReqWalltime)
		if !ok {
			continue
		}
		if sc := score(s, start); first || sc < bestScore {
			best, bestScore, first = s, sc, false
		}
	}
	return best, bestScore
}

// naiveCoAssign is CoAllocate's machine choice without the early stop: the
// machine of each part, the agreed start, and the number of estimates made,
// or ok=false when some part has no machine.
func naiveCoAssign(b *Broker, parts []*job.Job) (machines []string, start des.Time, estimates int, ok bool) {
	used := make(map[string]bool)
	latest := b.K.Now()
	for _, j := range parts {
		var best *sched.Scheduler
		bestStart := des.Forever
		for _, s := range b.feasible(j) {
			if used[s.M.ID] {
				continue
			}
			estimates++
			if at, ok := s.EstimateStart(j.Cores, j.ReqWalltime); ok && at < bestStart {
				best, bestStart = s, at
			}
		}
		if best == nil {
			return nil, 0, estimates, false
		}
		used[best.M.ID] = true
		machines = append(machines, best.M.ID)
		latest = max(latest, bestStart)
	}
	return machines, latest + 10*des.Minute, estimates, true
}

var allEngines = []string{"fcfs", "easy", "conservative", "fairshare", "gang", "priority"}

// randomJob draws a job of up to maxCores cores whose walltime ranges from
// minutes to most of a day, so estimates land both within the hour and
// far out.
func randomJob(r *simrand.Stream, maxCores int) *job.Job {
	wall := des.Time(60 * (1 + r.Intn(900)))
	run := wall
	if r.Bool(0.7) {
		run = des.Time(1 + r.Intn(int(wall)))
	}
	j := mkJob(1+r.Intn(maxCores), run, wall)
	if r.Bool(0.5) {
		j.Project = "q"
	}
	return j
}

// TestBoundedSelectionMatchesNaive drives random federations of 3–6
// machines (random engines, running and queued jobs, reservations,
// outages, node losses) through random virtual times and checks that the
// bounded selection picks what estimating every machine picks: the same
// machine under BestEstimated and DataAware, and the same machines and
// agreed start for co-allocations. Each kind of case is counted and
// required, so the bound is seen both pruning and not.
func TestBoundedSelectionMatchesNaive(t *testing.T) {
	var (
		queries, prunes, fullEvals, stagePrunes, stageBinds int
		coChecked, coPrunes, coFull, coNone, coResvFail     int
	)
	for c := 0; c < 200; c++ {
		r := simrand.New(uint64(c))
		k := des.New()
		k.RunUntil(des.Time(r.Intn(30)) * des.Day)
		n := 3 + r.Intn(4)
		var scheds []*sched.Scheduler
		var engines []*countingEngine
		engineOf := make(map[*sched.Scheduler]*countingEngine)
		widest := 0
		for i := 0; i < n; i++ {
			m := &grid.Machine{ID: fmt.Sprintf("m%d", i), Site: fmt.Sprintf("s%d", r.Intn(3)),
				Nodes: 4 + r.Intn(28), CoresPerNode: 8, UrgentCapable: r.Bool(0.5)}
			s, e := countedScheduler(k, m, allEngines[r.Intn(len(allEngines))])
			scheds = append(scheds, s)
			engines = append(engines, e)
			engineOf[s] = e
			widest = max(widest, m.BatchCores())
		}
		b := New(k, BestEstimated, simrand.New(uint64(c)+1000), scheds)
		b.DataHome["p"] = fmt.Sprintf("s%d", r.Intn(3))
		rate := float64(1 + r.Intn(50)) // MB/s between sites
		b.Stage = func(from, to string, bytes int64) float64 {
			if from == to {
				return 0
			}
			return float64(bytes) / (rate * 1e6)
		}
		for step := 0; step < 12; step++ {
			now := k.Now()
			for i := r.Intn(8); i > 0; i-- {
				s := scheds[r.Intn(n)]
				s.Submit(randomJob(r, s.M.BatchCores()))
			}
			for i := r.Intn(3); i > 0; i-- {
				b.Submit(randomJob(r, widest))
			}
			if r.Bool(0.3) {
				s := scheds[r.Intn(n)]
				at := now + des.Time(r.Intn(8*3600))
				_ = s.Reserve(fmt.Sprintf("r%d-%d", c, step), 1+r.Intn(s.M.BatchCores()), at, at+des.Time(600+r.Intn(4*3600)))
			}
			if r.Bool(0.2) {
				at := now + des.Time(r.Intn(12*3600))
				_ = scheds[r.Intn(n)].ScheduleOutage(at, at+des.Time(1800+r.Intn(6*3600)))
			}
			if r.Bool(0.2) {
				s := scheds[r.Intn(n)]
				s.FailNodes(1+r.Intn(s.M.BatchCores()/2), now+des.Time(1800+r.Intn(12*3600)))
			}
			k.RunUntil(k.Now() + des.Time(r.Intn(4*3600)))
			now = k.Now()

			for q := 0; q < 4; q++ {
				j := randomJob(r, widest)
				if r.Bool(0.1) {
					j.QOS = job.QOSUrgent
				}
				if r.Bool(0.7) {
					j.InputBytes = int64(r.Intn(200_000)) * 1e6
				}
				cands := b.feasible(j)
				if len(cands) == 0 {
					continue
				}
				for _, policy := range []SelectPolicy{BestEstimated, DataAware} {
					b.policy = policy
					for _, e := range engines {
						e.plans = 0
					}
					got := b.selectFrom(cands, j)
					var skipped []*sched.Scheduler
					for _, s := range cands {
						if engineOf[s].plans == 0 {
							skipped = append(skipped, s)
						}
					}
					want, wantScore := naiveBestBy(cands, j, b.startScore(j))
					if got != want {
						t.Fatalf("case %d step %d %v: bounded pick %s, naive pick %s (%d cores, wall %v, at %v)",
							c, step, policy, got.M.ID, want.M.ID, j.Cores, j.ReqWalltime, now)
					}
					queries++
					prunes += len(skipped)
					if len(skipped) == 0 && len(cands) > 1 {
						fullEvals++
					}
					if policy != DataAware {
						continue
					}
					if wantScore > float64(now) {
						// Prunes the now bound alone could not make: each
						// candidate's own staging put it out of reach.
						stagePrunes += len(skipped)
					}
					if at, ok := want.EstimateStart(j.Cores, j.ReqWalltime); ok && wantScore > float64(at) {
						stageBinds++
					}
				}
			}

			if r.Bool(0.5) {
				b.policy = BestEstimated
				parts := []*job.Job{randomJob(r, widest), randomJob(r, widest)}
				if r.Bool(0.3) {
					parts = append(parts, randomJob(r, widest))
				}
				machines, start, estimates, ok := naiveCoAssign(b, parts)
				for _, e := range engines {
					e.plans = 0
				}
				got, err := b.CoAllocate(parts)
				switch {
				case !ok:
					if err == nil || !strings.Contains(err.Error(), "no machine") {
						t.Fatalf("case %d step %d: naive finds no machine, CoAllocate gave %v, %v", c, step, got, err)
					}
					coNone++
				case err != nil:
					// The choice was made; only booking it failed.
					if !strings.Contains(err.Error(), "reservation failed") {
						t.Fatalf("case %d step %d: CoAllocate: %v", c, step, err)
					}
					coResvFail++
				default:
					for i, p := range parts {
						if p.Machine != machines[i] {
							t.Fatalf("case %d step %d: part %d on %s, naive %s", c, step, i, p.Machine, machines[i])
						}
					}
					if got != start {
						t.Fatalf("case %d step %d: agreed start %v, naive %v", c, step, got, start)
					}
					coChecked++
					if plansBy(engines) < estimates {
						coPrunes++
					} else {
						coFull++
					}
				}
			}
		}
	}
	t.Logf("%d selections: %d candidates pruned, %d fully evaluated, %d staging prunes, %d staging-bound picks; "+
		"co-allocations: %d checked (%d stopped early, %d full), %d without machine, %d booking failures",
		queries, prunes, fullEvals, stagePrunes, stageBinds, coChecked, coPrunes, coFull, coNone, coResvFail)
	for _, need := range []struct {
		name string
		n    int
	}{
		{"pruned candidates", prunes}, {"fully evaluated selections", fullEvals},
		{"DataAware per-candidate prunes", stagePrunes}, {"staging-bound DataAware picks", stageBinds},
		{"checked co-allocations", coChecked}, {"early-stopped co-allocations", coPrunes},
		{"fully evaluated co-allocations", coFull},
	} {
		if need.n == 0 {
			t.Errorf("no %s: the randomized cases no longer exercise them", need.name)
		}
	}
}

// TestBoundedSelectionWorkCount pins the planner work of a placement:
// when the first candidate can start the job now, a brokered submit plans
// one queue, not one per machine, and a two-part co-allocation on idle
// machines plans two.
func TestBoundedSelectionWorkCount(t *testing.T) {
	k := des.New()
	var scheds []*sched.Scheduler
	var engines []*countingEngine
	for i := 0; i < 5; i++ {
		m := &grid.Machine{ID: fmt.Sprintf("m%d", i), Site: "s", Nodes: 8, CoresPerNode: 8}
		s, e := countedScheduler(k, m, "easy")
		scheds = append(scheds, s)
		engines = append(engines, e)
	}
	b := New(k, BestEstimated, simrand.New(1), scheds)
	b.Submit(mkJob(8, 100, 100))
	if n := plansBy(engines); n != 1 {
		t.Errorf("brokered submit to 5 idle machines planned %d queues, want 1", n)
	}
	for _, e := range engines {
		e.plans = 0
	}
	if _, err := b.CoAllocate([]*job.Job{mkJob(8, 100, 100), mkJob(8, 100, 100)}); err != nil {
		t.Fatal(err)
	}
	if n := plansBy(engines); n != 2 {
		t.Errorf("two-part co-allocation on idle machines planned %d queues, want 2", n)
	}
	k.Run()
}
