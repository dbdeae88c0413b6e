package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/storage"
	"decongestant/internal/workload/ycsb"
)

// sample is one completed (or failed) operation. Times are ns on the
// benchmark clock; due is when an open-loop operation was scheduled.
type sample struct {
	kind      opKind
	ok        bool
	secondary bool // a routed or cached read a secondary served
	key       int32
	ver       int64
	due       int64
	start     int64
	end       int64
}

// versionBook issues versions and records the write history. Writes
// to one key are serialized by the key's lock, so a key's versions are
// totally ordered and its history grows in version order. issued
// counts the versions handed out per key, for readers to check against
// without taking the lock.
type versionBook struct {
	mu     []sync.Mutex
	hist   []keyHistory
	issued []atomic.Int64
}

func newVersionBook(records int) *versionBook {
	b := &versionBook{mu: make([]sync.Mutex, records), hist: make([]keyHistory, records), issued: make([]atomic.Int64, records)}
	for i := range b.hist {
		b.hist[i] = newKeyHistory()
		b.issued[i].Store(1)
	}
	return b
}

var errMissing = errors.New("point read found no document")

// runner executes operations of one workload against one app.
type runner struct {
	a     *app
	ds    *dataset
	book  *versionBook
	reqID *atomic.Uint32
	errs  *errLog
	// keepSecondary makes closed loops keep every read a secondary
	// served, for the traced run's black-box freshness figures; an
	// untraced run keeps none, so its capacity phase does not pay for
	// a slice growing by millions of entries.
	keepSecondary bool
}

// errLog collects failed operations and failed checks: every one is
// counted, the first few are kept for the report.
type errLog struct {
	mu    sync.Mutex
	n     int64
	first []string
}

func (l *errLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.first) < 10 {
		l.first = append(l.first, fmt.Sprintf(format, args...))
	}
}

func (l *errLog) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (r *runner) readBody(key string) readBody {
	return func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID(ycsb.Table, key)
		if !ok {
			return nil, errMissing
		}
		return d, nil
	}
}

// exec runs one operation on behalf of worker p and fills s.
func (r *runner) exec(p *benchProc, o op, s *sample) {
	*s = sample{kind: o.kind, key: o.key}
	p.startRequest(r.reqID.Add(1), o.kind)
	var rootID, rootParent uint8
	var rootStart int64
	if p.tracing() {
		rootID, rootParent, rootStart = p.begin()
	}
	s.start = now()
	var err error
	switch o.kind {
	case opRead:
		err = r.read(p, o, s)
	case opUpdate:
		err = r.update(p, o, s)
	case opScan:
		err = r.scan(p, o, s)
	}
	s.end = now()
	if p.tracing() {
		p.end(spanOp, rootID, rootParent, rootStart)
	}
	s.ok = err == nil
	if err != nil {
		r.errs.add("%s %s: %v", o.kind, r.ds.keys[o.key], err)
	}
}

func (r *runner) read(p *benchProc, o op, s *sample) error {
	key := r.ds.keys[o.key]
	var res any
	var err error
	switch r.a.kind {
	case clientRouted:
		var pref driver.ReadPref
		res, pref, _, err = r.a.sys.Router.Read(p, r.readBody(key))
		s.secondary = pref == driver.Secondary
	case clientCached:
		var node int
		opts := driver.ReadOptions{Pref: driver.SecondaryPreferred, AuditBoundSecs: cacheBoundSecs}
		res, node, _, err = r.a.client.Read(p, opts, r.readBody(key))
		s.secondary = node >= 0 && node != r.a.conn.PrimaryID()
	default:
		res, _, _, err = r.a.client.Read(p, driver.ReadOptions{Pref: driver.Primary}, r.readBody(key))
	}
	if err != nil {
		return err
	}
	d, ok := res.(storage.Document)
	if !ok || d == nil {
		return errMissing
	}
	if d.ID() != key {
		return fmt.Errorf("returned _id %q", d.ID())
	}
	s.ver = d.Int("ver")
	if n := r.book.issued[o.key].Load(); s.ver < 0 || s.ver >= n {
		return fmt.Errorf("returned version %d, but only %d were issued before the read ended", s.ver, n)
	}
	return nil
}

// update writes the next version of the key. The key lock is held from
// issue to acknowledgement.
func (r *runner) update(p *benchProc, o op, s *sample) error {
	b := r.book
	b.mu[o.key].Lock()
	defer b.mu[o.key].Unlock()
	h := &b.hist[o.key]
	ver := int64(len(h.acked))
	b.issued[o.key].Store(ver + 1)
	key := r.ds.keys[o.key]
	fields := storage.D{"ver": ver, r.ds.fields[o.field]: r.ds.values[o.value]}
	body := func(tx cluster.WriteTxn) (any, error) { return nil, tx.Set(ycsb.Table, key, fields) }
	var err error
	if r.a.kind == clientRouted {
		_, _, err = r.a.sys.Router.Write(p, body)
	} else {
		_, _, err = r.a.client.Write(p, body)
	}
	if err != nil {
		h.acked = append(h.acked, never)
		return err
	}
	h.acked = append(h.acked, now())
	s.ver = ver
	return nil
}

// scan runs a range find over scanLimit consecutive keys and checks
// the result is exactly that static key set, sorted and unique.
func (r *runner) scan(p *benchProc, o op, s *sample) error {
	lo, hi := int(o.key), int(o.key)+scanLimit
	f := storage.Filter{"_id": storage.Range(r.ds.keys[lo], r.ds.keys[hi])}
	body := func(v cluster.ReadView) (any, error) { return v.Find(ycsb.Table, f, scanLimit), nil }
	res, _, _, err := r.a.client.Read(p, driver.ReadOptions{Pref: driver.Primary}, body)
	if err != nil {
		return err
	}
	docs, _ := res.([]storage.Document)
	if len(docs) != scanLimit {
		return fmt.Errorf("range [%d,%d) returned %d docs, want %d", lo, hi, len(docs), scanLimit)
	}
	for i, d := range docs {
		if want := r.ds.keys[lo+i]; d.ID() != want {
			return fmt.Errorf("range [%d,%d) position %d holds %q, want %q", lo, hi, i, d.ID(), want)
		}
	}
	return nil
}

// newWorker returns the process one load-generator goroutine runs as.
func newWorker(r *runner, name string, traced bool, spanCap int) *benchProc {
	p := &benchProc{Proc: r.a.env.Adhoc(name)}
	if traced {
		p.spans = make([]span, 0, spanCap)
	}
	return p
}

// openLoop issues ops at a fixed rate from t0 (ns on the benchmark
// clock), whatever the system does: op i is due at t0 + i/rate. Each
// worker takes the next op, sleeps until it is due and runs it;
// latency counts from the due time, so a stall also delays the ops
// queued behind it. Samples are preallocated, one per op.
func openLoop(procs []*benchProc, r *runner, ops []op, rate float64, t0 int64) ([]sample, error) {
	samples := make([]sample, len(ops))
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, len(procs))
	for _, p := range procs {
		wg.Add(1)
		go func(p *benchProc) {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				errc <- err
				return
			}
			defer pc.close()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				due := t0 + int64(float64(i)*interval)
				if err := pc.sleep(time.Duration(due - now())); err != nil {
					errc <- err
					return
				}
				s := &samples[i]
				r.exec(p, ops[i], s)
				s.due = due
			}
		}(p)
	}
	wg.Wait()
	close(errc)
	return samples, <-errc
}

// tally counts one closed-loop worker's operations. Per-operation
// samples are kept only for reads a secondary served, which the traced
// run's freshness accounting needs; everything else is checked inline.
type tally struct {
	ops       [3]int // completed, by kind
	failed    int
	secondary []readObs
}

func (t *tally) add(s *sample, keepSecondary bool) {
	if !s.ok {
		t.failed++
		return
	}
	t.ops[s.kind]++
	if keepSecondary && s.kind == opRead && s.secondary {
		t.secondary = append(t.secondary, readObs{key: s.key, ver: s.ver, start: s.start})
	}
}

func (t *tally) merge(o tally) {
	for k := range t.ops {
		t.ops[k] += o.ops[k]
	}
	t.failed += o.failed
	t.secondary = append(t.secondary, o.secondary...)
}

func (t tally) completed() int { return t.ops[opRead] + t.ops[opUpdate] + t.ops[opScan] }

// closedLoop keeps one op in flight per worker until the deadline; each
// worker draws its ops from its own seeded generator.
func closedLoop(procs []*benchProc, r *runner, gens []*generator, until int64) tally {
	out := make([]tally, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *benchProc) {
			defer wg.Done()
			var s sample
			for now() < until {
				r.exec(p, gens[i].next(), &s)
				out[i].add(&s, r.keepSecondary)
			}
		}(i, p)
	}
	wg.Wait()
	var total tally
	for _, t := range out {
		total.merge(t)
	}
	return total
}

// schedule draws n ops from the workload's mix.
func schedule(g *generator, n int, updatesOnly bool) []op {
	ops := make([]op, n)
	for i := range ops {
		if updatesOnly {
			ops[i] = g.update()
		} else {
			ops[i] = g.next()
		}
	}
	return ops
}

func seededGenerators(w *workload, records int, seed int64, n int) []*generator {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*generator, n)
	for i := range gens {
		gens[i] = newGenerator(w, records, rng.Int63())
	}
	return gens
}
