package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sharding"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
	"decongestant/internal/workload/ycsb"
)

// rung is one step of the layer ladder: one sequential point read
// entering the stack at a public boundary.
type rung struct {
	name   string
	nsOp   float64
	allocs float64
	iters  int
}

// rungTime is how long each rung is timed.
const rungTime = 150 * time.Millisecond

// ladderKeys is how many distinct keys the ladder cycles through.
const ladderKeys = 256

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeRung runs fn (given an iteration number) sequentially for
// rungTime after a short warm-up and reports ns/op and heap
// allocations/op. Allocations of background processes running at the
// same time are included; they are small next to a rung's own.
func timeRung(name string, fn func(i int) error) (rung, error) {
	for i := 0; i < 64; i++ {
		if err := fn(i); err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	a0 := heapAllocs()
	t0 := time.Now()
	deadline := t0.Add(rungTime)
	n := 0
	for ; n < 100 || time.Now().Before(deadline); n++ {
		if err := fn(n); err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	el := time.Since(t0)
	return rung{name: name, nsOp: float64(el.Nanoseconds()) / float64(n), allocs: float64(heapAllocs()-a0) / float64(n), iters: n}, nil
}

// runLadder times one point read at each public boundary of the stack,
// from storage up to a mongos hop, on the stack's first replica set
// and its data. It dials its own clients and closes them again.
func runLadder(st *stack, ds *dataset) ([]rung, error) {
	env := st.env
	p := env.Adhoc("ladder")
	keys := make([]string, ladderKeys)
	for i := range keys {
		keys[i] = keyName(i * (ds.records / ladderKeys))
	}
	shard0 := st.shards[0]
	// The sharded stack's first shard holds every other chunk; pick
	// keys it owns.
	if st.mongos != nil {
		keys = keys[:0]
		for i := 0; len(keys) < ladderKeys && i < len(ds.docs); i++ {
			id := keyName(i)
			if st.mongos.Router().Owner(id) == 0 {
				keys = append(keys, id)
			}
		}
	}
	key := func(i int) string { return keys[i%len(keys)] }
	found := func(d storage.Document, ok bool) error {
		if !ok || d == nil {
			return errMissing
		}
		return nil
	}
	body := func(id string) func(v cluster.ReadView) (any, error) {
		return func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID(ycsb.Table, id)
			if !ok {
				return nil, errMissing
			}
			return d, nil
		}
	}

	var rungs []rung
	add := func(name string, fn func(i int) error) error {
		r, err := timeRung(name, fn)
		if err != nil {
			return err
		}
		rungs = append(rungs, r)
		return nil
	}

	// Storage: a standalone store holding the ladder keys' documents.
	store := storage.NewStore()
	coll := store.C(ycsb.Table)
	for i := 0; i < len(ds.docs) && i < 4*ladderKeys; i++ {
		if err := coll.Insert(ds.docs[i]); err != nil {
			return nil, err
		}
	}
	if err := add("storage.find_by_id", func(i int) error {
		return found(coll.FindByID(keyName(i % (4 * ladderKeys))))
	}); err != nil {
		return nil, err
	}
	if err := add("storage.find_range", func(i int) error {
		lo := i % (4*ladderKeys - scanLimit)
		f := storage.Filter{"_id": storage.Range(keyName(lo), keyName(lo+scanLimit))}
		if n := len(coll.Find(f, scanLimit)); n != scanLimit {
			return fmt.Errorf("range returned %d docs", n)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	rs := shard0.rs
	if err := add("cluster.exec_read", func(i int) error {
		_, err := rs.ExecRead(p, rs.PrimaryID(), body(key(i)))
		return err
	}); err != nil {
		return nil, err
	}

	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	dial := func(addr string) (*wire.Client, error) {
		wc, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		closers = append(closers, wc.Close)
		return wc, nil
	}

	wc, err := dial(shard0.addr)
	if err != nil {
		return nil, err
	}
	if err := add("wire.loopback_read", func(i int) error {
		_, err := wc.ExecRead(p, wc.PrimaryID(), body(key(i)))
		return err
	}); err != nil {
		return nil, err
	}

	dc := driver.NewClient(env, wc)
	dc.RefreshRTTs(p)
	if err := add("driver.select_server", func(int) error {
		_, err := dc.SelectServer(driver.ReadOptions{Pref: driver.Secondary})
		return err
	}); err != nil {
		return nil, err
	}

	cwc, err := dial(shard0.addr)
	if err != nil {
		return nil, err
	}
	cc := driver.NewClient(env, cwc)
	cc.RefreshRTTs(p)
	if cc.EnableCache(env, cache.Config{}) == nil {
		return nil, fmt.Errorf("ladder: cache unavailable over the wire client")
	}
	bounded := driver.ReadOptions{Pref: driver.SecondaryPreferred, AuditBoundSecs: cacheBoundSecs}
	for i := range keys {
		if _, _, _, err := cc.Read(p, bounded, body(keys[i])); err != nil {
			return nil, err
		}
	}
	if err := add("cache.hit", func(i int) error {
		_, _, _, err := cc.Read(p, bounded, body(key(i)))
		return err
	}); err != nil {
		return nil, err
	}

	if err := add("driver.read", func(i int) error {
		_, _, _, err := dc.Read(p, driver.ReadOptions{Pref: driver.Primary}, body(key(i)))
		return err
	}); err != nil {
		return nil, err
	}

	rwc, err := dial(shard0.addr)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(env, rwc, balancerParams())
	sys.Client.RefreshRTTs(p)
	if err := add("core.router_read", func(i int) error {
		_, _, _, err := sys.Router.Read(p, body(key(i)))
		return err
	}); err != nil {
		return nil, err
	}

	mongosAddr, err := ladderMongos(st, env, dial, &closers)
	if err != nil {
		return nil, err
	}
	mwc, err := dial(mongosAddr)
	if err != nil {
		return nil, err
	}
	if err := add("sharding.mongos_hop", func(i int) error {
		_, err := mwc.ExecRead(p, mwc.PrimaryID(), body(key(i)))
		return err
	}); err != nil {
		return nil, err
	}
	return rungs, nil
}

// ladderMongos returns the address of a mongos in front of the stack:
// the sharded stack's own, or a one-shard mongos over the replica set.
func ladderMongos(st *stack, env *sim.RealtimeEnv, dial func(string) (*wire.Client, error), closers *[]func()) (string, error) {
	if st.mongos != nil {
		return st.frontAddr, nil
	}
	wc, err := dial(st.shards[0].addr)
	if err != nil {
		return "", err
	}
	m := sharding.NewMongos(env, []driver.Conn{wc}, []string{st.shards[0].addr}, balancerParams(), sharding.RouterOptions{})
	srv := wire.NewBackendServer(env, m, nil, wire.ServerConfig{})
	addr, err := serve(srv)
	if err != nil {
		return "", err
	}
	*closers = append(*closers, srv.Close)
	return addr, nil
}
