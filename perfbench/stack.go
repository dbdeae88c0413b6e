package main

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sharding"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
	genwl "decongestant/internal/workload"
	"decongestant/internal/workload/ycsb"
)

// dataset is the generated input: the loaded records and the pool of
// update values, both derived from the seed.
type dataset struct {
	records int
	keys    []string // keys[i] is keyName(i), built once
	docs    []storage.D
	values  []string
	fields  []string
}

func newDataset(records int, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{records: records}
	for f := 0; f < fieldCount; f++ {
		ds.fields = append(ds.fields, fmt.Sprintf("field%d", f))
	}
	ds.keys = make([]string, records)
	ds.docs = make([]storage.D, records)
	for i := range ds.docs {
		ds.keys[i] = keyName(i)
		d := storage.D{"_id": ds.keys[i], "ver": int64(0)}
		for _, f := range ds.fields {
			d[f] = genwl.RandString(rng, fieldLength)
		}
		ds.docs[i] = d
	}
	for i := 0; i < valuePool; i++ {
		ds.values = append(ds.values, genwl.RandString(rng, fieldLength))
	}
	return ds
}

// clusterConfig is a 3-member replica set with every modeled cost,
// RTT and checkpoint stall off: all time is real CPU or real waiting.
func clusterConfig() cluster.Config {
	return cluster.Config{
		Nodes:    3,
		CPUSlots: 8,

		ReadCost:    -1,
		WriteCost:   -1,
		ApplyCost:   -1,
		StatusCost:  -1,
		GetMoreCost: -1,
		CostJitter:  -1,

		RTTSameZone:        -1,
		RTTCrossZoneBase:   -1,
		RTTCrossZoneSpread: -1,
		RTTJitter:          -1,

		CheckpointInterval: 24 * time.Hour,
	}
}

// balancerParams are the paper's Read Balancer settings with the
// decision period stretched past the length of a run. The fraction of
// reads sent to secondaries then stays at its 10 % floor throughout,
// and every run routes alike; with the paper's 10 s period, one to four
// decisions, each moving the fraction by 10 points, would fall at
// different points of different runs.
func balancerParams() core.Params {
	p := core.DefaultParams()
	p.Period = time.Minute
	return p
}

// rsServer is one replica set behind its wire server.
type rsServer struct {
	rs   *cluster.ReplicaSet
	srv  *wire.Server
	addr string
	keys []string // the _ids loaded into it
}

func serve(srv *wire.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func startReplicaSet(env *sim.RealtimeEnv, docs []storage.D) (*rsServer, error) {
	rs := cluster.New(env, clusterConfig())
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C(ycsb.Table)
		for _, d := range docs {
			if err := c.Insert(d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	srv := wire.NewServer(env, rs, nil)
	addr, err := serve(srv)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(docs))
	for i, d := range docs {
		keys[i] = d.ID()
	}
	return &rsServer{rs: rs, srv: srv, addr: addr, keys: keys}, nil
}

// app is one client application: one pipelined wire connection and
// the client stack of its workload on top.
type app struct {
	wc     *wire.Client
	conn   driver.Conn // wc, or the tracing decorator around it
	client *driver.Client
	sys    *core.System // routed apps
	cache  *cache.Cache // cached apps
	kind   clientKind
	env    *sim.RealtimeEnv
}

// newApp dials addr and builds the client stack. traced wraps the
// connection in the span-recording decorator.
func newApp(env *sim.RealtimeEnv, addr string, kind clientKind, traced bool) (*app, error) {
	wc, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	a := &app{wc: wc, conn: wc, kind: kind, env: env}
	if traced {
		a.conn = tracedConn{wc}
	}
	switch kind {
	case clientRouted:
		a.sys = core.NewSystem(env, a.conn, balancerParams())
		a.client = a.sys.Client
	case clientCached:
		a.client = driver.NewClient(env, a.conn)
		a.cache = a.client.EnableCache(env, cache.Config{})
		if a.cache == nil {
			wc.Close()
			return nil, fmt.Errorf("connection lacks the freshness capability the cache needs")
		}
	default:
		a.client = driver.NewClient(env, a.conn)
	}
	// Server selection needs RTT samples and a topology status before
	// the first read; the monitor keeps them current afterwards.
	a.client.RefreshRTTs(env.Adhoc("setup"))
	if kind != clientRouted {
		a.client.StartMonitor(env, time.Second)
	}
	return a, nil
}

// stack is the whole deployment of one workload: replica sets behind
// wire servers, an optional mongos, and the client apps.
type stack struct {
	env    *sim.RealtimeEnv
	shards []*rsServer
	// mongos and mongosSrv are set for the sharded workload.
	mongos    *sharding.Mongos
	mongosSrv *wire.Server
	mongosWC  []*wire.Client
	// front is the wire server client apps talk to and frontReg its
	// registry.
	frontAddr string
	frontReg  *obs.Registry

	apps []*app
}

// splits returns the chunk boundaries of the sharded workload.
func splits(records int) []string {
	var out []string
	for k := chunkKeys; k < records; k += chunkKeys {
		out = append(out, keyName(k))
	}
	return out
}

// buildStack starts the servers of w and loads ds. Client apps are
// added with addApp.
func buildStack(w *workload, ds *dataset, seed int64) (*stack, error) {
	st := &stack{env: sim.NewRealtimeEnv(seed)}
	if !w.sharded {
		s, err := startReplicaSet(st.env, ds.docs)
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = []*rsServer{s}
		st.frontAddr, st.frontReg = s.addr, s.rs.Metrics()
		return st, nil
	}
	cm := sharding.NewChunkMap(splits(ds.records), 2)
	var parts [2][]storage.D
	for i, d := range ds.docs {
		sh := cm.Owner(keyName(i))
		parts[sh] = append(parts[sh], d)
	}
	conns := make([]driver.Conn, 2)
	addrs := make([]string, 2)
	for i := range parts {
		s, err := startReplicaSet(st.env, parts[i])
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, s)
		wc, err := wire.Dial(s.addr)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("mongos dial shard %d: %w", i, err)
		}
		st.mongosWC = append(st.mongosWC, wc)
		conns[i], addrs[i] = wc, s.addr
	}
	opts := sharding.RouterOptions{Authority: sharding.NewChunkAuthority(st.env, cm)}
	st.mongos = sharding.NewMongos(st.env, conns, addrs, balancerParams(), opts)
	st.mongosSrv = wire.NewBackendServer(st.env, st.mongos, nil, wire.ServerConfig{})
	addr, err := serve(st.mongosSrv)
	if err != nil {
		st.close()
		return nil, err
	}
	st.frontAddr, st.frontReg = addr, st.mongos.Metrics()
	return st, nil
}

func (st *stack) addApp(kind clientKind, traced bool) (*app, error) {
	a, err := newApp(st.env, st.frontAddr, kind, traced)
	if err != nil {
		return nil, err
	}
	st.apps = append(st.apps, a)
	return a, nil
}

// close stops every client, server and background process of the
// stack and waits for the processes to exit.
func (st *stack) close() {
	for _, a := range st.apps {
		a.wc.Close()
	}
	if st.mongosSrv != nil {
		st.mongosSrv.Close()
	}
	for _, wc := range st.mongosWC {
		wc.Close()
	}
	for _, s := range st.shards {
		s.srv.Close()
	}
	st.env.Shutdown()
}

// prime builds every member's wire encoding of every document before
// anything is timed. Members encode a document lazily the first time
// they serve it, and a long-running server has encoded its working
// set; the measured phases should see that steady state. Bootstrap is
// the only public way into each member's store; priming only reads.
func (st *stack) prime() error {
	for _, s := range st.shards {
		err := s.rs.Bootstrap(func(store *storage.Store) error {
			c := store.C(ycsb.Table)
			for _, id := range s.keys {
				e, ok := c.FindByIDEncoded(id)
				if !ok {
					return fmt.Errorf("prime: %s missing", id)
				}
				e.Bytes()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// registries returns the replica sets' registries.
func (st *stack) registries() []*obs.Registry {
	var out []*obs.Registry
	for _, s := range st.shards {
		out = append(out, s.rs.Metrics())
	}
	return out
}

// sumCounters adds every counter whose name is base or base{labels}
// across the snapshots.
func sumCounters(snaps []obs.Snapshot, base string) uint64 {
	var total uint64
	for _, s := range snaps {
		for _, in := range s.Instruments {
			if in.Kind == obs.KindCounter && (in.Name == base || strings.HasPrefix(in.Name, base+"{")) {
				total += in.Count
			}
		}
	}
	return total
}

// histograms returns every histogram named base or base{labels} in the
// snapshots that has observations.
func histograms(snaps []obs.Snapshot, base string) []obs.HistStats {
	var out []obs.HistStats
	for _, s := range snaps {
		for _, in := range s.Instruments {
			if in.Kind == obs.KindHistogram && in.Hist != nil && in.Hist.Count > 0 &&
				(in.Name == base || strings.HasPrefix(in.Name, base+"{")) {
				out = append(out, *in.Hist)
			}
		}
	}
	return out
}

func snapshots(regs []*obs.Registry) []obs.Snapshot {
	out := make([]obs.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}
