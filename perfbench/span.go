package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// nproc is the machine's processor count: the forward engine's kernel
// workers and the live path's client goroutines and connections.
func nproc() int { return runtime.NumCPU() }

// span accumulates the wall time spent inside one layer boundary and the
// number of calls that crossed it. The benchmark wraps its own calls into
// a layer's public functions with a span, so no program code changes.
type span struct {
	ns    int64
	calls int64
}

// add records one call that took d.
func (s *span) add(d time.Duration) {
	s.ns += int64(d)
	s.calls++
}

// since records one call that started at t0.
func (s *span) since(t0 time.Time) { s.add(time.Since(t0)) }

// perCall is the mean time per call in nanoseconds (0 with no calls).
func (s *span) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// selfNs is a parent span's self time: its total minus the time its
// children cover. Children measured in a replay rather than inside the
// parent can sum to more than the parent on a noisy host; self time is
// then clamped at zero instead of going negative.
func selfNs(total int64, children ...int64) int64 {
	self := total
	for _, c := range children {
		self -= c
	}
	if self < 0 {
		return 0
	}
	return self
}

// nextTurn estimates the duration of turn number done (0-based) from
// the done turns, which took el in all, of which b4 went into the
// batch-4 sweeps that every even turn adds.
func nextTurn(el, b4 time.Duration, done int) time.Duration {
	next := (el - b4) / time.Duration(done)
	if done%2 == 0 {
		next += b4 / time.Duration((done+1)/2)
	}
	return next
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified. It returns NaN for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// A shared host only ever slows a sample down: time stolen by
// co-tenants and contended caches add to it, nothing subtracts. So a
// run reports a rate from the fastest tenth of its samples and a time
// from the quickest tenth, which reads the program rather than its
// neighbours.
func quietRate(rates []float64) float64 { return quantile(rates, 0.9) }

func quietTime(times []float64) float64 { return quantile(times, 0.1) }
