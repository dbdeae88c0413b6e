package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/core"
	"decongestant/internal/obs"
)

// window is one slice of the fixed-rate phase; figures reported as
// medians are taken per window.
type window struct {
	t0, t1 int64
	cpu    time.Duration // process CPU time spent in the window
}

// capPhase is one slice of the capacity phase.
type capPhase struct {
	t0, t1 int64
	ops    tally
	cpu    time.Duration // process CPU time spent in the slice
}

func (c capPhase) opsPerSec() float64 {
	return float64(c.ops.completed()) / (float64(c.t1-c.t0) / 1e9)
}

// phases holds the samples and resource figures of one measurement:
// warm-up, the fixed-rate phase and the capacity phase.
type phases struct {
	warm           tally
	open           []sample // one per scheduled op, in schedule order
	openT0, openT1 int64
	windows        []window
	caps           []capPhase
	// openRefs and capRefs are the host-speed readings taken between
	// the windows and between the slices (see hostSpeed).
	openRefs, capRefs []hostReading
	writer            []sample // cached-zipf's writer app, whole measurement
	gcCycles          uint32
	gcPause           time.Duration
	// memPeak is the peak live heap over the fixed-rate phase, whose
	// write volume is fixed by the schedule.
	memPeak uint64
	// cache counters of the reader over the fixed-rate phase and over
	// the whole measurement.
	cacheOpen, cacheAll cache.Stats
	// front-server counters over the fixed-rate phase and over the whole
	// measurement.
	frontOpen, frontAll counterDelta
	// router read counts (primary, secondary) over the measurement.
	routedP, routedS int64
	fracSamples      []float64
	decisions        map[string]uint64
}

func (ph *phases) closed() tally {
	var t tally
	for _, c := range ph.caps {
		t.merge(c.ops)
	}
	return t
}

// attempted counts every operation of the measurement, warm-up
// included.
func (ph *phases) attempted() int64 {
	c := ph.closed()
	return int64(len(ph.open) + len(ph.writer) + c.completed() + c.failed + ph.warm.completed() + ph.warm.failed)
}

// secondaryReads returns the successful reads a secondary served.
func (ph *phases) secondaryReads() []readObs {
	return append(pointReads(ph.open, true), ph.closed().secondary...)
}

// openOps counts the operations completed in the fixed-rate phase by
// the measured app and the writer app.
func (ph *phases) openOps(t0, t1 int64) int {
	return completed(ph.open, t0, t1) + completed(ph.writer, t0, t1)
}

// measure drives reader app a (and, for cached-zipf, the writer app
// w) through warm-up, the fixed-rate phase (openWindows windows) and
// the capacity phase (capSlices slices). The garbage collector
// runs at its own pace throughout: a long-running server pays for it
// too.
func measure(cfg runConfig, st *stack, a, w *app, ds *dataset, book *versionBook, errs *errLog, seed int64, traced bool, spanBufs *[][]span) (*phases, error) {
	wl := cfg.w
	var reqID atomic.Uint32
	r := &runner{a: a, ds: ds, book: book, reqID: &reqID, errs: errs, keepSecondary: cfg.trace}
	nseg := openWindows
	openDur := time.Duration(cfg.seconds * 0.5 * float64(time.Second))
	capDur := time.Duration(cfg.seconds * 0.5 * float64(time.Second) / capSlices)
	rate := wl.openRate * cfg.rateScale
	nOpen := int(rate * openDur.Seconds())
	// Span buffers grow on demand from a modest start.
	spanHint := 0
	if traced {
		spanHint = 1 << 12
	}
	openProcs := make([]*benchProc, openWorkers)
	for i := range openProcs {
		openProcs[i] = newWorker(r, fmt.Sprintf("open-%d", i), traced, spanHint)
	}
	closedProcs := make([]*benchProc, wl.depth)
	warmProcs := make([]*benchProc, wl.depth)
	for i := range closedProcs {
		closedProcs[i] = newWorker(r, fmt.Sprintf("closed-%d", i), traced, spanHint)
		warmProcs[i] = newWorker(r, fmt.Sprintf("warm-%d", i), false, 0)
	}
	openOps := schedule(newGenerator(wl, ds.records, seed), nOpen, false)
	gens := seededGenerators(wl, ds.records, seed+1, wl.depth)
	warmGens := seededGenerators(wl, ds.records, seed+2, wl.depth)

	ph := &phases{}
	var writerWG sync.WaitGroup
	var writerErr error
	start := now()
	if w != nil {
		wr := &runner{a: w, ds: ds, book: book, reqID: &reqID, errs: errs}
		total := cfg.warmup.Seconds() + cfg.seconds + 0.5
		wrate := wl.writerRate * cfg.rateScale
		wops := schedule(newGenerator(wl, ds.records, seed+3), int(wrate*total), true)
		wprocs := make([]*benchProc, writerWorkers)
		for i := range wprocs {
			wprocs[i] = newWorker(wr, fmt.Sprintf("writer-%d", i), false, 0)
		}
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			ph.writer, writerErr = openLoop(wprocs, wr, wops, wrate, start)
		}()
	}

	// Warm-up: fill caches and connection state; not measured.
	ph.warm = closedLoop(warmProcs, r, warmGens, start+int64(cfg.warmup))
	// Every run enters the fixed-rate phase with a freshly collected
	// heap, so its windows see the same number of collections.
	runtime.GC()
	// The live heap is sampled from here: a collection during the
	// closed-loop warm-up also counts what is allocated while it marks,
	// which varies with the speed of the run.
	mem := startMemSampler()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	systems := balancers(st, a)
	p0, s0 := routerCounts(systems)
	dec0 := decisionCounts(systems)
	cache0 := cacheSnap(a)
	front0 := readCounters(st.frontReg)
	stopFrac := sampleFractions(systems, &ph.fracSamples)

	// Fixed-rate phase: one schedule, cut into windows that each run
	// their share of it, with a host-speed reading before each window
	// and after the last. A window's CPU time runs from its first due
	// time until its last operation completes.
	winDur := int64(openDur) / int64(nseg)
	perWin := len(openOps) / nseg
	var err error
	for k := 0; k < nseg && err == nil; k++ {
		ph.openRefs = append(ph.openRefs, hostSpeed())
		cpu0 := cpuTime()
		t0 := now() + int64(time.Millisecond)
		var got []sample
		got, err = openLoop(openProcs, r, openOps[k*perWin:(k+1)*perWin], rate, t0)
		ph.open = append(ph.open, got...)
		ph.windows = append(ph.windows, window{t0: t0, t1: t0 + winDur, cpu: cpuTime() - cpu0})
	}
	ph.openRefs = append(ph.openRefs, hostSpeed())
	ph.openT0, ph.openT1 = ph.windows[0].t0, ph.windows[len(ph.windows)-1].t1
	ph.memPeak = mem.finish()
	ph.cacheOpen = cacheDelta(cacheSnap(a), cache0)
	ph.frontOpen = readCounters(st.frontReg).minus(front0)

	// Capacity phase.
	for k := 0; k < capSlices && err == nil; k++ {
		ph.capRefs = append(ph.capRefs, hostSpeed())
		cpu0 := cpuTime()
		c := capPhase{t0: now()}
		c.ops = closedLoop(closedProcs, r, gens, c.t0+int64(capDur))
		c.t1 = now()
		c.cpu = cpuTime() - cpu0
		ph.caps = append(ph.caps, c)
	}
	ph.capRefs = append(ph.capRefs, hostSpeed())

	stopFrac()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	ph.cacheAll = cacheDelta(cacheSnap(a), cache0)
	ph.frontAll = readCounters(st.frontReg).minus(front0)
	p1, s1 := routerCounts(systems)
	ph.routedP, ph.routedS = p1-p0, s1-s0
	dec1 := decisionCounts(systems)
	ph.decisions = map[string]uint64{}
	for k, v := range dec1 {
		ph.decisions[k] = v - dec0[k]
	}
	writerWG.Wait()
	if err == nil {
		err = writerErr
	}
	if err != nil {
		return nil, fmt.Errorf("open-loop pacer: %w", err)
	}
	if spanBufs != nil {
		for _, p := range append(openProcs, closedProcs...) {
			*spanBufs = append(*spanBufs, p.spans)
		}
	}
	return ph, nil
}

// sampleFractions records the balancers' published fraction every
// 100 ms until the returned stop function is called.
func sampleFractions(systems []*core.System, out *[]float64) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			for _, sys := range systems {
				*out = append(*out, float64(sys.Balancer.FractionPct()))
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

type counterDelta map[string]uint64

var frontCounters = []string{
	"wire.requests{op=find_by_id}", "wire.requests{op=find}", "wire.requests{op=write_batch}",
	"wire.bytes_in", "wire.bytes_out", "wire.frames_in", "wire.frames_out",
}

func readCounters(reg *obs.Registry) counterDelta {
	snap := reg.Snapshot()
	out := counterDelta{}
	for _, n := range frontCounters {
		out[n] = snap.CounterValue(n)
	}
	return out
}

func (a counterDelta) minus(b counterDelta) counterDelta {
	out := counterDelta{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func cacheDelta(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Expired: a.Expired - b.Expired,
		Evictions: a.Evictions - b.Evictions, Invalidations: a.Invalidations - b.Invalidations,
		FillsCollapsed: a.FillsCollapsed - b.FillsCollapsed, Entries: a.Entries, Bytes: a.Bytes,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler records the peak live heap — the bytes the last
// collection found reachable — until stopped. Unlike the heap's
// momentary size it does not depend on when collections happen to
// run.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > m.peak.Load() {
				m.peak.Store(v)
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) finish() uint64 {
	close(m.stop)
	<-m.done
	return m.peak.Load()
}

// balancers returns the core balancers serving reads of the run: the
// routed app's, or the mongos's per-shard ones.
func balancers(st *stack, a *app) []*core.System {
	if a.sys != nil {
		return []*core.System{a.sys}
	}
	if st.mongos != nil {
		r := st.mongos.Router()
		out := make([]*core.System, r.NumShards())
		for i := range out {
			out[i] = r.System(i)
		}
		return out
	}
	return nil
}

func routerCounts(systems []*core.System) (p, s int64) {
	for _, sys := range systems {
		a, b := sys.Router.Counts(false)
		p += a
		s += b
	}
	return p, s
}

var decisionReasons = []string{core.ReasonIncrease, core.ReasonDecrease, core.ReasonHold, core.ReasonExplore, core.ReasonGated}

func decisionCounts(systems []*core.System) map[string]uint64 {
	out := map[string]uint64{}
	for _, sys := range systems {
		snap := sys.Client.Metrics().Snapshot()
		for _, r := range decisionReasons {
			out[r] += snap.CounterValue(obs.Name("balancer.decisions", "reason", r))
		}
		out["gate_trips"] += snap.CounterValue("balancer.gate_trips")
	}
	return out
}

func cacheSnap(a *app) cache.Stats {
	if a.cache == nil {
		return cache.Stats{}
	}
	return a.cache.Snapshot()
}

// latencies returns the latencies (ns, from due time) of the samples
// of one kind; failed operations count as +Inf.
func latencies(samples []sample, kind opKind, t0, t1 int64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind != kind || s.due < t0 || s.due >= t1 {
			continue
		}
		if !s.ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(s.end-s.due))
	}
	return out
}

func completed(samples []sample, t0, t1 int64) int {
	n := 0
	for _, s := range samples {
		if s.ok && s.due >= t0 && s.due < t1 {
			n++
		}
	}
	return n
}

// pointReads extracts the successful point reads for freshness checks.
func pointReads(samples []sample, onlySecondary bool) []readObs {
	var out []readObs
	for _, s := range samples {
		if s.kind == opRead && s.ok && (!onlySecondary || s.secondary) {
			out = append(out, readObs{key: s.key, ver: s.ver, start: s.start})
		}
	}
	return out
}

// serverViolations sums the replica sets' freshness-bound and lease
// audit violations.
func serverViolations(st *stack) (bound, lease uint64) {
	snaps := snapshots(st.registries())
	return sumCounters(snaps, "freshness.bound_violations"), sumCounters(snaps, "lease.audit_violations")
}
