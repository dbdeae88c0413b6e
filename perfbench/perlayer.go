package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"decongestant/internal/obs"
)

// runTraced is the --trace 1 run: the same workload through an
// untraced and a span-recording client app on one stack, the tracing
// overhead probe, the layer ladder, and the per-layer figures. Each app
// measures for 40 % of --seconds, so with the probe and the ladder the
// run takes about as long as an untraced one.
func runTraced(cfg runConfig, res *result, st *stack, plain, traced, writer *app, ds *dataset, book *versionBook, errs *errLog) error {
	each := cfg
	each.seconds = cfg.seconds * 0.4
	u, err := measure(each, st, plain, writer, ds, book, errs, cfg.seed, false, nil)
	if err != nil {
		return err
	}
	var bufs [][]span
	t, err := measure(each, st, traced, writer, ds, book, errs, cfg.seed, true, &bufs)
	if err != nil {
		return err
	}
	pu, pt := overheadProbe(cfg, st, plain, traced, ds, book, errs)
	rungs, err := runLadder(st, ds)
	if err != nil {
		return fmt.Errorf("layer ladder: %w", err)
	}
	pathEquivalence(res, u, t, errs)
	checkRun(res, st, u.attempted()+t.attempted(), errs)

	sp := analyzeSpans(bufs)
	if cfg.spanDir != "" {
		path := filepath.Join(cfg.spanDir, cfg.w.name+".tsv")
		if err := writeSpans(path, bufs); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		res.info("spans %d written to %s", sp.spans, path)
	}
	us := func(v float64) float64 { return v / 1e3 }

	// core
	reads := float64(t.routedP + t.routedS)
	share := 0.0
	if reads > 0 {
		share = float64(t.routedS) / reads
	}
	res.set("core.secondary_share", share, "frac", fmt.Sprintf("n=%d routed reads", int64(reads)))
	res.set("core.balance_fraction_pct_mean", mean(t.fracSamples), "pct", fmt.Sprintf("n=%d samples", len(t.fracSamples)))
	for _, r := range decisionReasons {
		res.set("core.decisions."+r, float64(t.decisions[r]), "count", "")
	}
	res.set("core.gate_trips", float64(t.decisions["gate_trips"]), "count", "")
	self := newDist(sp.clientSelf)
	res.set("client.self_us_p50", us(self.q(0.5)), "us", self.describe(0.99, 1e-3, "us")+" (root read span minus its Conn.Exec* children)")
	if cfg.w.client == clientRouted {
		res.note("core.client_self_us_p50", us(self.q(0.5)), "us", "Router.Read span minus its Conn.Exec* child")
	}

	// driver
	ce := newDist(sp.connExec)
	res.set("driver.conn_exec_us_p50", us(ce.q(0.5)), "us", ce.describe(0.99, 1e-3, "us"))
	res.set("driver.conn_exec_us_p99", us(ce.q(0.99)), "us", "")
	clientSnaps := []obs.Snapshot{traced.client.Metrics().Snapshot()}
	for _, sys := range balancers(st, traced) {
		if sys != traced.sys {
			clientSnaps = append(clientSnaps, sys.Client.Metrics().Snapshot())
		}
	}
	res.set("driver.fallback_retries", float64(sumCounters(clientSnaps, "driver.fallback_retries")), "count", "")
	res.set("driver.no_eligible_server", float64(sumCounters(clientSnaps, "driver.no_eligible_server")), "count", "")

	// cache
	tReads := float64(countKind(t.open, opRead) + t.closed().ops[opRead])
	c := t.cacheAll
	perKop := func(n uint64) float64 { return float64(n) / math.Max(1, tReads/1000) }
	hitRatio := ratio(c.Hits, c.Hits+c.Misses)
	res.set("cache.hit_ratio", hitRatio, "frac", fmt.Sprintf("n=%d lookups", c.Hits+c.Misses))
	res.set("cache.evictions_per_kop", perKop(c.Evictions), "1/kop", "")
	res.set("cache.invalidations_per_kop", perKop(c.Invalidations), "1/kop", "")
	res.set("cache.expired_per_kop", perKop(c.Expired), "1/kop", "")
	res.set("cache.fills_collapsed_per_kop", perKop(c.FillsCollapsed), "1/kop", "")
	res.set("cache.bytes", float64(c.Bytes), "bytes", fmt.Sprintf("%d entries", c.Entries))

	// wire
	vo := newDist(sp.viewOps)
	res.set("wire.view_op_us_p50", us(vo.q(0.5)), "us", vo.describe(0.99, 1e-3, "us"))
	res.set("wire.view_op_us_p99", us(vo.q(0.99)), "us", "")
	rsSnaps := snapshots(st.registries())
	frontSnap := []obs.Snapshot{st.frontReg.Snapshot()}
	srvP50 := maxHist(rsSnaps, "wire.request_latency{op=find_by_id}", 0.5)
	res.set("wire.server_us_p50.find_by_id", us(srvP50), "us", "slowest replica-set server, whole run")
	res.set("wire.server_us_p99.find_by_id", us(maxHist(rsSnaps, "wire.request_latency{op=find_by_id}", 0.99)), "us", "")
	res.set("wire.server_us_p50.write_batch", us(maxHist(rsSnaps, "wire.request_latency{op=write_batch}", 0.5)), "us", "")
	frontFind := maxHist(frontSnap, "wire.request_latency{op=find_by_id}", 0.5)
	vr := newDist(sp.viewOpsRead)
	res.set("wire.transport_us_p50", us(vr.q(0.5)-frontFind), "us",
		fmt.Sprintf("point-read view op p50 %.4gus minus front-server find_by_id p50 %.4gus", us(vr.q(0.5)), us(frontFind)))
	tOps := float64(t.openOps(t.openT0, t.openT1) + t.closed().completed())
	fa := t.frontAll
	res.set("wire.bytes_per_op", float64(fa["wire.bytes_in"]+fa["wire.bytes_out"])/math.Max(1, tOps), "bytes", fmt.Sprintf("n=%.0f ops at the front server", tOps))
	res.set("wire.frames_per_op", float64(fa["wire.frames_in"]+fa["wire.frames_out"])/math.Max(1, tOps), "count", "")
	allSnaps := append(rsSnaps, frontSnap...)
	if st.mongos == nil {
		allSnaps = rsSnaps
	}
	res.set("wire.requests_shed", float64(sumCounters(allSnaps, "wire.requests_shed")), "count", "")
	res.set("wire.decode_errors", float64(sumCounters(allSnaps, "wire.decode_errors")), "count", "")

	// cluster
	res.set("cluster.cpu_queue_wait_us_p99", us(maxHist(rsSnaps, "cluster.cpu_queue_wait", 0.99)), "us", "slowest member, whole run")
	res.set("cluster.commit_latency_us_p50", us(maxHist(rsSnaps, "cluster.commit_latency", 0.5)), "us", "")
	res.set("cluster.commit_batch_txns_mean", histMean(rsSnaps, "cluster.commit_batch_txns"), "count", "")
	res.set("cluster.getmore_latency_us_p99", us(maxHist(rsSnaps, "cluster.getmore_latency", 0.99)), "us", "")
	sec := assessFreshness(book.hist, append(u.secondaryReads(), t.secondaryReads()...))
	res.set("cluster.superseded_read_frac", sec.staleFrac(), "frac", fmt.Sprintf("n=%d secondary-served reads, %d superseded", sec.reads, sec.stale))
	res.note("freshness.observed_staleness_secs_p99", maxHist(rsSnaps, "freshness.observed_staleness_secs", 0.99), "s", "worst bound label")

	// sharding
	var mSnap []obs.Snapshot
	if st.mongos != nil {
		mSnap = frontSnap
	}
	res.set("sharding.scatter_partial", float64(sumCounters(mSnap, "sharding.scatter_partial")), "count", "")
	res.set("sharding.stale_chunk_retries", float64(sumCounters(mSnap, "sharding.stale_chunk_retries")), "count", "")
	if st.mongos != nil {
		res.note("sharding.mongos_server_us_p50.find", us(maxHist(frontSnap, "wire.request_latency{op=find}", 0.5)), "us", "")
		res.note("sharding.mongos_server_us_p50.find_by_id", us(frontFind), "us", "")
		res.note("sharding.shard_server_us_p50.find", us(maxHist(rsSnaps, "wire.request_latency{op=find}", 0.5)), "us", "slowest shard")
		res.note("wire.server_us_p50.find", us(maxHist(rsSnaps, "wire.request_latency{op=find}", 0.5)), "us", "")
	}

	// process and generator
	res.set("process.gc_cycles", float64(t.gcCycles), "count", "traced phases")
	res.set("process.gc_pause_ms_total", float64(t.gcPause)/1e6, "ms", "")
	late := newDist(lateness(t.open))
	res.set("loadgen.late_us_p99", us(late.q(0.99)), "us", late.describe(0.99, 1e-3, "us"))

	// tracing overhead
	res.set("trace.untraced_peak_ops_s", pu, "1/s", fmt.Sprintf("median of %d alternating capacity slices", probeSlices))
	res.set("trace.traced_peak_ops_s", pt, "1/s", fmt.Sprintf("%d spans recorded in the traced phases", sp.spans))
	res.set("trace.overhead_frac", 1-pt/pu, "frac", "1 - traced/untraced capacity")

	// layer ladder
	for _, r := range rungs {
		res.set(r.name+"_ns", r.nsOp, "ns", fmt.Sprintf("n=%d sequential reads", r.iters))
		res.set(r.name+"_allocs", r.allocs, "count", "heap allocations per read")
	}
	return nil
}

// probeSlices is how many capacity slices each app gets in the
// overhead probe; probeSlice is their length.
const (
	probeSlices = 4
	probeSlice  = 400 * time.Millisecond
)

// overheadProbe measures the capacity of the untraced and the traced
// app in alternating slices, so drift in the stack's state over the run
// affects both alike. It returns the median ops/s of each.
func overheadProbe(cfg runConfig, st *stack, plain, traced *app, ds *dataset, book *versionBook, errs *errLog) (untraced, withSpans float64) {
	var reqID atomic.Uint32
	var rates [2][]float64
	for k := 0; k < probeSlices; k++ {
		for i, a := range []*app{plain, traced} {
			r := &runner{a: a, ds: ds, book: book, reqID: &reqID, errs: errs}
			procs := make([]*benchProc, cfg.w.depth)
			for j := range procs {
				procs[j] = newWorker(r, fmt.Sprintf("probe-%d", j), a == traced, 1<<12)
			}
			c := capPhase{t0: now()}
			c.ops = closedLoop(procs, r, seededGenerators(cfg.w, ds.records, cfg.seed+int64(10+k), cfg.w.depth), c.t0+int64(probeSlice))
			c.t1 = now()
			rates[i] = append(rates[i], c.opsPerSec())
		}
	}
	return newDist(rates[0]).q(0.5), newDist(rates[1]).q(0.5)
}

func countKind(samples []sample, k opKind) int {
	n := 0
	for _, s := range samples {
		if s.kind == k {
			n++
		}
	}
	return n
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// maxHist is the largest q-percentile (ns) among the matching
// histograms with observations: the slowest member or shard. q is 0.5
// or 0.99, the percentiles registry snapshots carry.
func maxHist(snaps []obs.Snapshot, base string, q float64) float64 {
	best := 0.0
	for _, h := range histograms(snaps, base) {
		v := h.P50
		if q > 0.5 {
			v = h.P99
		}
		best = math.Max(best, float64(v))
	}
	return best
}

func histMean(snaps []obs.Snapshot, base string) float64 {
	var sum, n float64
	for _, h := range histograms(snaps, base) {
		sum += float64(h.Sum)
		n += float64(h.Count)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// equivTolerance is how far the traced and untraced runs may differ
// on a routing or cache share: the relative bound of the end-to-end
// metrics plus a small absolute floor for shares near zero.
const (
	equivRel = 0.25
	equivAbs = 0.02
)

func agree(a, b float64) bool {
	return math.Abs(a-b) <= equivRel*math.Max(math.Abs(a), math.Abs(b))+equivAbs
}

// pathEquivalence checks that the traced client took the same paths as
// the untraced one: the same secondary share, cache hit ratio and
// per-operation mix of wire requests in the fixed-rate phase. A
// decorator that hid an optional Conn capability would change them.
func pathEquivalence(res *result, u, t *phases, errs *errLog) {
	shareOf := func(ph *phases) float64 { return ratio(uint64(ph.routedS), uint64(ph.routedP+ph.routedS)) }
	hitOf := func(ph *phases) float64 { return ratio(ph.cacheOpen.Hits, ph.cacheOpen.Hits+ph.cacheOpen.Misses) }
	type cmp struct {
		name string
		a, b float64
	}
	cmps := []cmp{
		{"core.secondary_share", shareOf(u), shareOf(t)},
		{"cache.hit_ratio", hitOf(u), hitOf(t)},
	}
	ops := func(ph *phases) float64 { return float64(ph.openOps(ph.openT0, ph.openT1)) }
	keys := make([]string, 0, 3)
	for k := range u.frontOpen {
		if len(k) > len("wire.requests") && k[:len("wire.requests")] == "wire.requests" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		cmps = append(cmps, cmp{k + "_per_op", float64(u.frontOpen[k]) / math.Max(1, ops(u)), float64(t.frontOpen[k]) / math.Max(1, ops(t))})
	}
	for _, c := range cmps {
		ok := agree(c.a, c.b)
		res.info("path-equivalence %-40s untraced=%.4f traced=%.4f agree=%t", c.name, c.a, c.b, ok)
		if !ok {
			errs.add("path-equivalence: %s untraced %.4f traced %.4f", c.name, c.a, c.b)
		}
	}
}
