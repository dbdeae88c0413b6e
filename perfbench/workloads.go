package main

import (
	"fmt"
	"math/rand"

	"decongestant/internal/workload/ycsb"
)

// workload is one traffic mix. The offered rate of the fixed-rate
// phase and the in-flight depth of the capacity phase are constants
// here, next to the parent commit's measured capacity they were derived
// from, so later changes compare latency at the same load.
type workload struct {
	name string
	why  string

	records int
	zipf    bool // Zipfian keys; uniform otherwise

	readFrac, updateFrac, scanFrac float64

	// client selects the client stack: routed (core.Router → driver,
	// cache off), cached (driver.Client with the freshness-priced cache,
	// bounded SecondaryPreferred reads) or plain (driver.Client, primary
	// reads). sharded puts a sharding.Mongos over two replica sets in
	// front of the clients.
	client  clientKind
	sharded bool

	// openRate is the offered rate (ops/s) of the fixed-rate phase;
	// depth the in-flight operations of the capacity phase.
	openRate float64
	depth    int
	// writerRate is the fixed update rate (ops/s) of the separate
	// writer application (cached-zipf only).
	writerRate float64
	// parentPeakOpsS is the capacity (ops/s at depth, median of ten
	// runs, before scaling to the reference host speed) the parent
	// commit measured on a 2-core x86-64 host; openRate is
	// set at a tenth to a fifth of it, well below the knee, so that the
	// fixed-rate phase stays below it even when the host takes back half
	// of its CPU time.
	parentPeakOpsS float64
}

type clientKind int

const (
	clientRouted clientKind = iota
	clientCached
	clientPlain
)

const (
	// defaultRecords is several times the 8 MiB default cache: each
	// record is ten 100-byte fields plus a version, ~1 KiB.
	defaultRecords = 32_000
	fieldCount     = 10
	fieldLength    = 100
	// scanLimit is the limit of a range find; every range find spans
	// a chunk boundary (sharded-scan).
	scanLimit = 20
	// chunkKeys is the number of consecutive keys per chunk of the
	// sharded workload; chunks alternate between the two shards.
	chunkKeys = 1000
	// cacheBoundSecs is the staleness bound cached reads declare.
	cacheBoundSecs = 10
)

var workloads = []*workload{
	{
		name:           "routed-uniform",
		why:            "YCSB-B through core.Router, driver (cache off), wire and cluster with uniform keys: the loopback point-read path",
		records:        defaultRecords,
		readFrac:       0.95,
		updateFrac:     0.05,
		client:         clientRouted,
		openRate:       8000,
		depth:          16,
		parentPeakOpsS: 41600,
	},
	{
		name:           "cached-zipf",
		why:            "bounded SecondaryPreferred Zipfian reads through the freshness-priced cache while a separate writer app updates: cache and its staleness",
		records:        defaultRecords,
		zipf:           true,
		readFrac:       1,
		client:         clientCached,
		openRate:       30000,
		depth:          16,
		writerRate:     400,
		parentPeakOpsS: 305000,
	},
	{
		name:           "sharded-scan",
		why:            "point reads, chunk-crossing range finds and updates through a mongos over 2 shards: routing, scatter-gather, merge and the extra hop",
		records:        defaultRecords,
		readFrac:       0.70,
		updateFrac:     0.05,
		scanFrac:       0.25,
		client:         clientPlain,
		sharded:        true,
		openRate:       1200,
		depth:          16,
		parentPeakOpsS: 11300,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opRead opKind = iota
	opUpdate
	opScan
)

func (k opKind) String() string {
	return [...]string{"read", "update", "scan"}[k]
}

// op is one generated operation: a point read or update of key, or a
// range find over [key, key+scanLimit). field picks the updated field
// and value the replacement string from the value pool.
type op struct {
	kind  opKind
	key   int32
	field uint8
	value uint16
}

// keyName is the _id of record i. Zero padding makes the string order
// the numeric order, so range finds have a known result.
func keyName(i int) string { return fmt.Sprintf("user%06d", i) }

// valuePool is how many distinct update values the generator draws
// from; the pool is built from the seed once per run.
const valuePool = 512

// generator draws operations for one workload from a seeded source.
type generator struct {
	w    *workload
	n    int
	rng  *rand.Rand
	zipf *ycsb.ScrambledZipfian
	uni  *ycsb.Uniform
}

func newGenerator(w *workload, records int, seed int64) *generator {
	return &generator{
		w: w, n: records,
		rng:  rand.New(rand.NewSource(seed)),
		zipf: ycsb.NewScrambledZipfian(int64(records)),
		uni:  ycsb.NewUniform(int64(records)),
	}
}

func (g *generator) key() int32 {
	if g.w.zipf {
		return int32(g.zipf.Next(g.rng))
	}
	return int32(g.uni.Next(g.rng))
}

// scanStart picks a range start whose scanLimit keys cross a chunk
// boundary: the range begins 1..scanLimit-1 keys before a boundary.
func (g *generator) scanStart() int32 {
	chunks := g.n / chunkKeys
	if chunks < 2 {
		return int32(g.rng.Intn(g.n - scanLimit))
	}
	b := (1 + g.rng.Intn(chunks-1)) * chunkKeys
	return int32(b - 1 - g.rng.Intn(scanLimit-1))
}

// next draws one operation from the workload's mix.
func (g *generator) next() op {
	x := g.rng.Float64()
	switch {
	case x < g.w.readFrac:
		return op{kind: opRead, key: g.key()}
	case x < g.w.readFrac+g.w.updateFrac:
		return g.update()
	default:
		return op{kind: opScan, key: g.scanStart()}
	}
}

// update draws one update: a key, a field and a replacement value.
func (g *generator) update() op {
	return op{kind: opUpdate, key: g.key(), field: uint8(g.rng.Intn(fieldCount)), value: uint16(g.rng.Intn(valuePool))}
}
