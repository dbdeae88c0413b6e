package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark trusts it.
const minTail = 10

// dist summarizes one set of latency samples. Failed operations enter
// as +Inf: they miss every latency limit.
type dist struct {
	n      int
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{n: len(s), sorted: s}
}

// q returns the nearest-rank q-quantile (0 < q <= 1); NaN when empty.
func (d dist) q(q float64) float64 {
	if d.n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(d.n))) - 1
	if i < 0 {
		i = 0
	}
	return d.sorted[i]
}

// tail reports how many samples lie strictly beyond the q-quantile's
// rank.
func (d dist) tail(q float64) int {
	return d.n - int(math.Ceil(q*float64(d.n)))
}

// trusted reports whether the q-quantile has at least minTail samples
// beyond it.
func (d dist) trusted(q float64) bool { return d.tail(q) >= minTail }

// highest returns the highest of the levels 50, 90, 99, 99.9, ... that
// still has minTail samples beyond it, and its value. ok is false when
// even the median lacks them.
func (d dist) highest() (level float64, value float64, ok bool) {
	levels := []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}
	for i := len(levels) - 1; i >= 0; i-- {
		if d.trusted(levels[i]) {
			return levels[i], d.q(levels[i]), true
		}
	}
	return 0, math.NaN(), false
}

// describe renders the median, the requested tail percentile and the
// highest trusted percentile with the sample count, flagging a tail
// percentile that lacks minTail samples beyond it.
func (d dist) describe(tailQ float64, scale float64, unit string) string {
	s := fmt.Sprintf("n=%d p50=%.4g%s p%s=%.4g%s", d.n, d.q(0.5)*scale, unit, pctLabel(tailQ), d.q(tailQ)*scale, unit)
	if lvl, v, ok := d.highest(); ok {
		s += fmt.Sprintf(" highest-trusted=p%s:%.4g%s", pctLabel(lvl), v*scale, unit)
	}
	if !d.trusted(tailQ) {
		s += fmt.Sprintf(" WARNING: only %d samples beyond p%s", d.tail(tailQ), pctLabel(tailQ))
	}
	return s
}

func pctLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e5)/1e3)
}

// ---- freshness accounting ----

// never marks a version that was issued but never acknowledged.
const never = math.MaxInt64

// keyHistory is one key's version timeline: acked[v] is when the write
// of version v returned success (never if it failed). Version 0 is the
// loaded value, in place before the run. Writes to one key are
// serialized, so acknowledgement times increase with v.
type keyHistory struct {
	acked []int64
}

func newKeyHistory() keyHistory {
	return keyHistory{acked: []int64{math.MinInt64}}
}

// readObs is one point read as the client saw it: the version it
// returned and when the read started.
type readObs struct {
	key   int32
	ver   int64
	start int64
}

// freshness is the black-box staleness of a set of reads.
type freshness struct {
	reads int
	stale int
	// ages holds, for each stale read, how long (ns) before the read
	// started the returned version had been superseded: the read's
	// start minus the acknowledgement of the next version.
	ages []float64
}

func (f freshness) staleFrac() float64 {
	if f.reads == 0 {
		return 0
	}
	return float64(f.stale) / float64(f.reads)
}

// assessFreshness classifies each read against the write history. A
// read is stale when some version newer than the one it returned had
// been acknowledged before the read started.
func assessFreshness(hist []keyHistory, reads []readObs) freshness {
	var f freshness
	for _, r := range reads {
		h := hist[r.key]
		f.reads++
		next := r.ver + 1
		if next < int64(len(h.acked)) && h.acked[next] < r.start {
			f.stale++
			f.ages = append(f.ages, float64(r.start-h.acked[next]))
		}
	}
	return f
}
