package sched

import (
	"fmt"

	"github.com/tgsim/tgmod/internal/des"
)

// profile is a step function of free cores over future virtual time. It is
// the planning structure behind backfilling and advance reservations: the
// scheduler builds a profile from the guaranteed end times of running jobs
// (start + requested walltime; jobs are killed at the limit, so the
// guarantee is hard) and from committed reservations, then asks where a
// (cores, duration) rectangle first fits.
//
// The representation is a sorted slice of points; points[i].free holds from
// points[i].t (inclusive) until points[i+1].t (exclusive). The last point
// extends to infinity. Invariant: times strictly increase. Every query reads
// the step function only, so a redundant breakpoint (equal free on both
// sides) changes no answer. Queries cost one binary search plus a forward
// scan over the segments they cover; earliestFit is linear in the segments
// at or after its origin.
type profile struct {
	points []profilePoint
}

type profilePoint struct {
	t    des.Time
	free int
}

// newProfile returns a profile with free cores everywhere from time origin.
func newProfile(origin des.Time, free int) *profile {
	return &profile{points: []profilePoint{{t: origin, free: free}}}
}

// reset makes p a single segment of free cores from time origin, reusing
// its point buffer.
func (p *profile) reset(origin des.Time, free int) {
	p.points = append(p.points[:0], profilePoint{t: origin, free: free})
}

// copyFrom makes p a copy of q, reusing p's point buffer; used for
// tentative planning.
func (p *profile) copyFrom(q *profile) {
	p.points = append(p.points[:0], q.points...)
}

// splitAt ensures a point exists exactly at time t (within the profile's
// domain) and returns its index. Times before the origin are clamped.
func (p *profile) splitAt(t des.Time) int {
	if t <= p.points[0].t {
		return 0
	}
	// Binary search for the segment containing t.
	lo, hi := 0, len(p.points)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.points[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if p.points[lo].t == t {
		return lo
	}
	p.points = append(p.points, profilePoint{})
	copy(p.points[lo+2:], p.points[lo+1:])
	p.points[lo+1] = profilePoint{t: t, free: p.points[lo].free}
	return lo + 1
}

// subtract removes cores from the interval [start, end). It panics if the
// subtraction would drive any segment negative — that is a planning bug.
func (p *profile) subtract(start, end des.Time, cores int) {
	if end <= start || cores <= 0 {
		return
	}
	i := p.splitAt(start)
	var j int
	if end == des.Forever {
		j = len(p.points)
	} else {
		j = p.splitAt(end)
	}
	for k := i; k < j; k++ {
		p.points[k].free -= cores
		if p.points[k].free < 0 {
			panic(fmt.Sprintf("sched: profile overcommitted at %v: %d cores short",
				p.points[k].t, -p.points[k].free))
		}
	}
}

// capTo limits free cores to at most limit over [start, end). Unlike
// subtract it never panics: it is used for maintenance outages, which
// override whatever was planned.
func (p *profile) capTo(start, end des.Time, limit int) {
	if end <= start {
		return
	}
	i := p.splitAt(start)
	var j int
	if end == des.Forever {
		j = len(p.points)
	} else {
		j = p.splitAt(end)
	}
	for k := i; k < j; k++ {
		if p.points[k].free > limit {
			p.points[k].free = limit
		}
	}
}

// deduct removes cores from [start, end) like subtract but floors each
// segment at zero instead of panicking. It models partial node failures:
// failed nodes may transiently overlap windows the profile already blanked
// (an outage, another loss), and losing already-unavailable capacity is not
// a planning bug.
func (p *profile) deduct(start, end des.Time, cores int) {
	if end <= start || cores <= 0 {
		return
	}
	i := p.splitAt(start)
	var j int
	if end == des.Forever {
		j = len(p.points)
	} else {
		j = p.splitAt(end)
	}
	for k := i; k < j; k++ {
		p.points[k].free -= cores
		if p.points[k].free < 0 {
			p.points[k].free = 0
		}
	}
}

// segmentIndex returns the index of the segment containing t (the last
// point with time ≤ t; 0 when t precedes the origin).
func (p *profile) segmentIndex(t des.Time) int {
	if t <= p.points[0].t {
		return 0
	}
	lo, hi := 0, len(p.points)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.points[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// minFree returns the minimum free cores over [start, end).
func (p *profile) minFree(start, end des.Time) int {
	if end <= start {
		return p.freeAt(start)
	}
	min := int(^uint(0) >> 1)
	for i := p.segmentIndex(start); i < len(p.points); i++ {
		if p.points[i].t >= end {
			break
		}
		if p.points[i].free < min {
			min = p.points[i].free
		}
	}
	return min
}

// freeAt returns the free cores at time t.
func (p *profile) freeAt(t des.Time) int {
	return p.points[p.segmentIndex(t)].free
}

// earliestFit returns the earliest time ≥ from at which a (cores, duration)
// rectangle fits entirely within the profile. Candidate start times are the
// profile's step points (free cores only increase at job completions, so
// checking steps is sufficient). One binary search finds the segment
// holding from; after that the scan only walks forward: when segment v is
// too small, the next candidate is points[v+1].t, whose segment is v+1, and
// the segments before it never need rechecking. The search always
// terminates because the final segment extends to infinity; if cores never
// fit there the capacity is simply too small and the caller must reject the
// job beforehand.
func (p *profile) earliestFit(from des.Time, cores int, duration des.Time) (des.Time, bool) {
	if duration <= 0 {
		duration = 1
	}
	pts := p.points
	cand := from
	if cand < pts[0].t {
		cand = pts[0].t
	}
	end := cand + duration
	for k := p.segmentIndex(cand); k < len(pts) && pts[k].t < end; k++ {
		if pts[k].free >= cores {
			continue
		}
		if k+1 >= len(pts) {
			// The violating segment extends to infinity.
			return 0, false
		}
		cand = pts[k+1].t
		end = cand + duration
	}
	return cand, true
}
