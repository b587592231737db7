package sched

import (
	"fmt"
	"testing"

	"github.com/tgsim/tgmod/internal/des"
	"github.com/tgsim/tgmod/internal/simrand"
)

// TestEstimateNeverPrecedesNow checks the premise of the metascheduler's
// bounded selection: EstimateStart never returns a start before the
// scheduler's clock. Random lifecycles on every engine build the states —
// running and queued jobs, reservations, outages, node losses — and every
// tenth case queues more jobs than the estimator plans in detail, so the
// backlog tail is part of the estimate.
func TestEstimateNeverPrecedesNow(t *testing.T) {
	engines := []string{"fcfs", "easy", "conservative", "fairshare", "gang", "priority"}
	var estimates, withResv, withOutage, withLoss, withTail int
	for c := 0; c < 120; c++ {
		r := simrand.New(uint64(c))
		k := des.New()
		k.RunUntil(des.Time(r.Intn(20)) * des.Day)
		engine := engines[r.Intn(len(engines))]
		deep := c%10 == 0
		if deep {
			// A deep queue would make planning engines quadratic here.
			engine = []string{"fcfs", "easy"}[r.Intn(2)]
		}
		s := MustNamed(k, testMachine(), engine)
		capacity := s.M.BatchCores()
		submit := func(n int) {
			for ; n > 0; n-- {
				wall := des.Time(60 * (1 + r.Intn(600)))
				run := wall
				if r.Bool(0.7) {
					run = des.Time(1 + r.Intn(int(wall)))
				}
				s.Submit(mkJob(1+r.Intn(capacity), run, wall))
			}
		}
		if deep {
			submit(1100)
		}
		for step := 0; step < 10; step++ {
			now := k.Now()
			submit(r.Intn(10))
			if r.Bool(0.4) {
				at := now + des.Time(r.Intn(8*3600))
				_ = s.Reserve(fmt.Sprintf("r%d", step), 1+r.Intn(capacity), at, at+des.Time(600+r.Intn(4*3600)))
			}
			if r.Bool(0.3) {
				at := now + des.Time(r.Intn(12*3600))
				_ = s.ScheduleOutage(at, at+des.Time(1800+r.Intn(6*3600)))
			}
			if r.Bool(0.3) {
				s.FailNodes(1+r.Intn(capacity/2), now+des.Time(1800+r.Intn(12*3600)))
			}
			k.RunUntil(now + des.Time(r.Intn(3*3600)))
			now = k.Now()
			for q := 0; q < 4; q++ {
				cores := 1 + r.Intn(capacity)
				wall := des.Time(r.Intn(24 * 3600))
				at, ok := s.EstimateStart(cores, wall)
				if ok && at < now {
					t.Fatalf("case %d (%s) step %d: EstimateStart(%d, %v) = %v, before now %v",
						c, engine, step, cores, wall, at, now)
				}
				estimates++
				if len(s.resvs) > 0 {
					withResv++
				}
				if len(s.outages) > 0 {
					withOutage++
				}
				if len(s.nodeLosses) > 0 {
					withLoss++
				}
				if s.QueueLen() > 1000 {
					withTail++
				}
			}
		}
	}
	t.Logf("%d estimates: %d with reservations, %d with outages, %d with node losses, %d with a backlog tail",
		estimates, withResv, withOutage, withLoss, withTail)
	if withResv == 0 || withOutage == 0 || withLoss == 0 || withTail == 0 {
		t.Error("the random states no longer cover reservations, outages, node losses and a backlog tail")
	}
}
