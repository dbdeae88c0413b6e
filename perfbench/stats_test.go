package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // unsorted on purpose
	}
	return out
}

func TestDistQuantilesNearestRank(t *testing.T) {
	d := newDist(seq(1000))
	if d.n != 1000 {
		t.Fatalf("n = %d", d.n)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := d.q(c.q); got != c.want {
			t.Errorf("q(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(newDist(nil).q(0.5)) {
		t.Error("empty dist must report NaN")
	}
}

func TestDistHighestTrustedPercentile(t *testing.T) {
	cases := []struct {
		n         int
		wantLevel float64
		trusted99 bool
	}{
		{19, 0, false},     // not even the median has 10 beyond it
		{20, 0.5, false},   // exactly 10 beyond the median
		{999, 0.9, false},  // p99 has only 9 beyond
		{1000, 0.99, true}, // p99 has exactly 10 beyond
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		d := newDist(seq(c.n))
		level, _, ok := d.highest()
		if ok != (c.wantLevel > 0) || level != c.wantLevel {
			t.Errorf("n=%d: highest = %g (ok %t), want %g", c.n, level, ok, c.wantLevel)
		}
		if got := d.trusted(0.99); got != c.trusted99 {
			t.Errorf("n=%d: trusted(0.99) = %t, want %t", c.n, got, c.trusted99)
		}
	}
}

func TestDistFailuresMissEveryLimit(t *testing.T) {
	s := seq(1000)
	for i := 0; i < 20; i++ {
		s[i] = math.Inf(1)
	}
	if got := newDist(s).q(0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failed ops = %g, want +Inf", got)
	}
}

// history builds a key history from the acknowledgement times of
// versions 1, 2, ...
func history(acked ...int64) keyHistory {
	h := newKeyHistory()
	h.acked = append(h.acked, acked...)
	return h
}

func TestAssessFreshnessHandBuiltHistory(t *testing.T) {
	hist := []keyHistory{
		// key 0: v1 acked at 110, v2 at 230, v3 never acknowledged.
		history(110, 230, never),
		// key 1: never written.
		newKeyHistory(),
	}
	reads := []readObs{
		{key: 0, ver: 0, start: 105},  // v1 not yet acked: fresh
		{key: 0, ver: 0, start: 120},  // v1 acked at 110: stale by 10
		{key: 0, ver: 1, start: 220},  // v2 in flight: fresh
		{key: 0, ver: 1, start: 260},  // v2 acked at 230: stale by 30
		{key: 0, ver: 0, start: 500},  // v1 acked at 110: stale by 390
		{key: 0, ver: 2, start: 500},  // v3 never acked: fresh
		{key: 0, ver: 3, start: 310},  // in-flight version: fresh
		{key: 1, ver: 0, start: 1000}, // no writes: fresh
	}
	f := assessFreshness(hist, reads)
	if f.reads != 8 || f.stale != 3 {
		t.Fatalf("reads=%d stale=%d, want 8 and 3", f.reads, f.stale)
	}
	want := []float64{10, 30, 390}
	for i, w := range want {
		if f.ages[i] != w {
			t.Errorf("age[%d] = %g, want %g", i, f.ages[i], w)
		}
	}
	if got := f.staleFrac(); got != 3.0/8 {
		t.Errorf("staleFrac = %g", got)
	}
}
