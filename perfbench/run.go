package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// records overrides the workload's record count; setups the number
	// of timed set-ups; rateScale scales the offered rates. The smoke
	// tests shrink all three.
	records   int
	setups    int
	rateScale float64
	warmup    time.Duration
	// spanDir receives the traced run's span dump ("" skips it).
	spanDir string
}

const (
	defaultSetups = 5
	openWorkers   = 32
	writerWorkers = 4
	defaultWarmup = 1500 * time.Millisecond
	// openWindows is how many windows the fixed-rate phase and
	// capSlices how many slices the capacity phase is cut into; figures
	// reported as medians are medians over them.
	openWindows = 5
	capSlices   = 8
)

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run: the contract's JSON object plus
// the report lines printed before it.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`

	report []string
}

func (r *result) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metricVal{Value: v, Unit: unit}
	r.note(name, v, unit, note)
}

// note adds a report line for a figure that is printed but not part of
// the metrics object.
func (r *result) note(name string, v float64, unit, note string) {
	line := fmt.Sprintf("metric %-40s %14.6g %-6s", name, v, unit)
	if note != "" {
		line += " " + note
	}
	r.report = append(r.report, line)
}

func (r *result) info(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// run executes one workload invocation.
func run(cfg runConfig) (*result, error) {
	if cfg.records == 0 {
		cfg.records = cfg.w.records
	}
	if cfg.setups == 0 {
		cfg.setups = defaultSetups
	}
	if cfg.rateScale == 0 {
		cfg.rateScale = 1
	}
	if cfg.warmup == 0 {
		cfg.warmup = defaultWarmup
	}
	res := &result{Correct: true, Metrics: map[string]metricVal{}}
	ds := newDataset(cfg.records, cfg.seed)
	res.info("workload %s seed %d seconds %g trace %t records %d", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.records)

	// Set-up: build the servers, load the data and connect the apps,
	// several times; all but the last stack are torn down again.
	var st *stack
	var reader, writer, traced *app
	setups := 1
	if !cfg.trace {
		setups = cfg.setups
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		st, err = buildStack(cfg.w, ds, cfg.seed)
		if err != nil {
			return nil, err
		}
		if reader, err = st.addApp(cfg.w.client, false); err != nil {
			st.close()
			return nil, err
		}
		if cfg.w.writerRate > 0 {
			if writer, err = st.addApp(clientPlain, false); err != nil {
				st.close()
				return nil, err
			}
		}
		if cfg.trace {
			if traced, err = st.addApp(cfg.w.client, true); err != nil {
				st.close()
				return nil, err
			}
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer st.close()
	t0 := time.Now()
	if err := st.prime(); err != nil {
		return nil, err
	}
	res.info("primed every member in %.2fs", time.Since(t0).Seconds())

	book := newVersionBook(ds.records)
	errs := &errLog{}
	if cfg.trace {
		return res, runTraced(cfg, res, st, reader, traced, writer, ds, book, errs)
	}

	ph, err := measure(cfg, st, reader, writer, ds, book, errs, cfg.seed, false, nil)
	if err != nil {
		return nil, err
	}
	checkRun(res, st, ph.attempted(), errs)

	sd := newDist(setupTimes)
	res.set("setup_s", sd.q(0.5), "s", fmt.Sprintf("median of %d set-ups %v", len(setupTimes), fmtList(setupTimes)))

	// Writes of cached-zipf come from the separate writer app.
	writes := ph.open
	if writer != nil {
		writes = ph.writer
	}
	latencyMetrics(res, ph, "read", opRead, ph.open)
	latencyMetrics(res, ph, "write", opUpdate, writes)
	if cfg.w.scanFrac > 0 {
		latencyMetrics(res, ph, "scan", opScan, ph.open)
	}
	// Time figures are scaled to the reference host speed by the median
	// host-speed reading of their own phase (see hostspeed.go).
	openSpeed, capSpeed := meanSpeed(ph.openRefs).cpu, meanSpeed(ph.capRefs).wall
	var peaks, utils, cpus []float64
	for _, c := range ph.caps {
		peaks = append(peaks, c.opsPerSec())
		utils = append(utils, c.cpu.Seconds()/(float64(c.t1-c.t0)/1e9))
	}
	var cpuTotal time.Duration
	for _, w := range ph.windows {
		cpus = append(cpus, float64(w.cpu.Nanoseconds())/1e3/math.Max(1, float64(ph.openOps(w.t0, w.t1))))
		cpuTotal += w.cpu
	}
	res.info("offered %.0f ops/s in the fixed-rate phase: %.0f%% of the parent commit's measured capacity of %.0f ops/s",
		cfg.w.openRate*cfg.rateScale, 100*cfg.w.openRate*cfg.rateScale/cfg.w.parentPeakOpsS, cfg.w.parentPeakOpsS)
	res.info("host speed, hashes per second per CPU (reference %.4g): mean %.4g per CPU-second in the fixed-rate phase %s; mean %.4g per wall second in the capacity phase %s",
		referenceSpeed, openSpeed, fmtSpeeds(ph.openRefs, false), capSpeed, fmtSpeeds(ph.capRefs, true))
	peak := newDist(peaks).q(0.5)
	res.set("peak_ops_s", peak*referenceSpeed/capSpeed, "1/s",
		fmt.Sprintf("at reference host speed; measured: median %.6g of %d capacity slices at depth %d %s, process CPU per second %s",
			peak, len(peaks), cfg.w.depth, fmtList(peaks), fmtList(utils)))
	// CPU per operation over the whole phase, not a median of windows:
	// a collection costs one window a fifth of its CPU time and spares
	// the next.
	nops := ph.openOps(ph.openT0, ph.openT1)
	cpu := float64(cpuTotal.Nanoseconds()) / 1e3 / math.Max(1, float64(nops))
	res.set("cpu_us_per_op", cpu*openSpeed/referenceSpeed, "us",
		fmt.Sprintf("at reference host speed; measured: %.6g (windows %s); n=%d ops, process CPU %.3fs at %.0f ops/s offered",
			cpu, fmtList(cpus), nops, cpuTotal.Seconds(), cfg.w.openRate*cfg.rateScale))
	res.set("mem_peak_mb", float64(ph.memPeak)/(1<<20), "MB", "peak live Go heap over the fixed-rate phase")

	fr := assessFreshness(book.hist, pointReads(ph.open, false))
	ages := newDist(fr.ages)
	res.note("stale_read_frac", fr.staleFrac(), "frac", fmt.Sprintf("n=%d reads, %d stale", fr.reads, fr.stale))
	if ages.n > 0 {
		res.note("stale_age_p99_ms", ages.q(0.99)/1e6, "ms", ages.describe(0.99, 1e-6, "ms"))
	} else {
		res.note("stale_age_p99_ms", 0, "ms", "n=0 stale reads")
	}
	late := newDist(lateness(ph.open))
	res.note("loadgen.late_us_p99", late.q(0.99)/1e3, "us", late.describe(0.99, 1e-3, "us"))
	res.note("error_frac", float64(res.Failed)/math.Max(1, float64(res.Attempted)), "frac",
		fmt.Sprintf("n=%d attempted, %d failed", res.Attempted, res.Failed))
	return res, nil
}

// latencyMetrics prints <name>_p50_us, the median over the windows of
// the fixed-rate phase of each window's median latency of one
// operation kind, and <name>_p99_us over the whole phase, with the
// sample count and the highest percentile that has ten samples beyond
// it. Neither goes into the metrics object: on a shared 2-core host
// their run-to-run spread exceeds the largest bound a metric may have
// (see DESIGN.md).
func latencyMetrics(res *result, ph *phases, name string, kind opKind, samples []sample) {
	var p50s []float64
	for _, w := range ph.windows {
		p50s = append(p50s, newDist(latencies(samples, kind, w.t0, w.t1)).q(0.5)/1e3)
	}
	all := newDist(latencies(samples, kind, ph.openT0, ph.openT1))
	res.note(name+"_p50_us", newDist(p50s).q(0.5), "us", fmt.Sprintf("n=%d, median of windows %s", all.n, fmtList(p50s)))
	res.note(name+"_p99_us", all.q(0.99)/1e3, "us", all.describe(0.99, 1e-3, "us"))
}

func lateness(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, float64(s.start-s.due))
	}
	return out
}

func fmtSpeeds(rs []hostReading, wall bool) string {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.cpu
		if wall {
			v[i] = r.wall
		}
	}
	return fmtList(v)
}

func fmtList(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// checkRun adds the server-side checks — no freshness-bound or lease
// audit violations — to the per-operation checks made as each
// operation completed, and fills attempted and failed.
func checkRun(res *result, st *stack, attempted int64, errs *errLog) {
	res.Attempted = attempted
	bound, lease := serverViolations(st)
	if bound > 0 || lease > 0 {
		errs.add("check: server audit reports %d freshness-bound and %d lease violations", bound, lease)
	}
	res.info("check freshness.bound_violations=%d lease.audit_violations=%d", bound, lease)
	res.Failed = errs.count()
	if res.Failed > 0 {
		res.Correct = false
		for _, e := range errs.first {
			res.info("error %s", e)
		}
	}
}
