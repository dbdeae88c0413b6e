package wire

// Framing and transport tests for the PR 10 freshness-cache surface:
// the want_fresh request flag and the stale_secs response answer (zero
// bytes when unrequested), the two-sided filter
// condition, corrupt-frame rejection for both, and the end-to-end
// ExecReadFreshMeta path over a real socket.

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// TestFreshMetaRoundTripBothCodecs: WantFresh and StaleSecs survive
// the v2 codec. (The name dates from when a JSON codec was also
// checked.)
func TestFreshMetaRoundTripBothCodecs(t *testing.T) {
	req := Request{ID: 21, Op: OpFindByID, Node: 2, Collection: "kv", DocID: "a",
		WantFresh: true}

	body, err := encodeRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := decodeRequest(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.WantFresh {
		t.Fatal("v2 dropped want_fresh")
	}

	resp := Response{ID: 22, Found: true, OpSecs: 9, OpInc: 1, StaleSecs: 4}
	rbody, err := encodeResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var rout Response
	if err := decodeResponse(rbody, &rout); err != nil {
		t.Fatal(err)
	}
	if rout.StaleSecs != 4 {
		t.Fatalf("v2 stale_secs = %d, want 4", rout.StaleSecs)
	}
}

// TestFreshTagsUnrequestedCostZeroBytes: a read that does not ask for
// staleness must encode byte-identically to one predating the field,
// and a response that carries none likewise — the cache's wire cost is
// borne only by cache fills.
func TestFreshTagsUnrequestedCostZeroBytes(t *testing.T) {
	base := Request{ID: 3, Op: OpFindByID, Node: 1, Collection: "kv", DocID: "a"}
	plain, err := encodeRequest(nil, &base)
	if err != nil {
		t.Fatal(err)
	}
	fresh := base
	fresh.WantFresh = true
	tagged, err := encodeRequest(nil, &fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != len(plain)+2 {
		t.Fatalf("want_fresh tag costs %d bytes, want 2", len(tagged)-len(plain))
	}
	if !bytes.Equal(plain, tagged[:len(plain)]) {
		t.Fatal("want_fresh changed unrelated frame bytes")
	}
	if tagged[len(plain)] != rqWantFresh {
		t.Fatalf("trailing tag = %d, want %d", tagged[len(plain)], rqWantFresh)
	}

	rbase := Response{ID: 4, Found: true, OpSecs: 9, OpInc: 1}
	rplain, err := encodeResponse(nil, &rbase)
	if err != nil {
		t.Fatal(err)
	}
	stale := rbase
	stale.StaleSecs = 3
	rtagged, err := encodeResponse(nil, &stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtagged) != len(rplain)+2 {
		t.Fatalf("stale_secs tag costs %d bytes, want 2", len(rtagged)-len(rplain))
	}
	if !bytes.Equal(rplain, rtagged[:len(rplain)]) {
		t.Fatal("stale_secs changed unrelated frame bytes")
	}
}

// TestWantFreshRejectsCorruptFlag: the flag byte is strictly 1 — any
// other value is a corrupt frame, and a truncated tag errors rather
// than decoding a half request.
func TestWantFreshRejectsCorruptFlag(t *testing.T) {
	var out Request
	if err := decodeRequest([]byte{rqWantFresh, 0x01}, &out); err != nil || !out.WantFresh {
		t.Fatalf("valid flag rejected: %v", err)
	}
	if err := decodeRequest([]byte{rqWantFresh, 0x02}, &out); err == nil ||
		!strings.Contains(err.Error(), "want_fresh flag 2") {
		t.Fatalf("invalid flag decoded: %v", err)
	}
	if err := decodeRequest([]byte{rqWantFresh}, &out); err == nil {
		t.Fatal("truncated want_fresh tag decoded")
	}
}

// TestTwoSidedFilterRoundTripBothCodecs: a storage.Range condition —
// the closed-interval scan the planner turns into one index walk —
// survives the binary filter codec with matching semantics ([lo, hi)).
// (The name dates from when a JSON form was also checked.)
func TestTwoSidedFilterRoundTripBothCodecs(t *testing.T) {
	f := storage.Filter{
		"k": storage.Range("doc10", "doc20"),
		"n": storage.Gte(int64(3)).And(storage.Lte(int64(7))),
	}
	check := func(name string, dec storage.Filter) {
		t.Helper()
		if len(dec) != len(f) {
			t.Fatalf("%s: decoded %d conds, want %d", name, len(dec), len(f))
		}
		in, _ := storage.D{"k": "doc15", "n": int64(7)}.Normalized()
		if !dec.Matches(in) {
			t.Fatalf("%s: decoded filter rejects in-range doc", name)
		}
		atHi, _ := storage.D{"k": "doc20", "n": int64(5)}.Normalized()
		if dec.Matches(atHi) {
			t.Fatalf("%s: decoded filter includes the exclusive high bound", name)
		}
		below, _ := storage.D{"k": "doc15", "n": int64(2)}.Normalized()
		if dec.Matches(below) {
			t.Fatalf("%s: decoded filter accepts out-of-range doc", name)
		}
	}

	enc, err := appendFilter(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	dec, rest, err := decodeFilter(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	check("v2", dec)
}

// TestTwoSidedFilterRejectsCorruptFrame: a second-bound op byte
// outside the range table is a corrupt frame (op2 zero would silently
// drop the bound; an unknown op would match nothing predictable), and
// every truncation of a valid two-sided frame errors.
func TestTwoSidedFilterRejectsCorruptFrame(t *testing.T) {
	frame := func(op2 byte) []byte {
		b := binary.AppendUvarint(nil, 1)
		b = appendString(b, "k")
		b = append(b, byte(storage.OpGte)|twoSidedBit)
		b = storage.AppendValue(b, "a")
		b = append(b, op2)
		b = storage.AppendValue(b, "b")
		return binary.AppendUvarint(b, 0)
	}
	valid := frame(byte(storage.OpLt))
	dec, _, err := decodeFilter(valid)
	if err != nil {
		t.Fatalf("hand-built two-sided frame rejected: %v", err)
	}
	if c := dec["k"]; c.Op2 != storage.OpLt || c.Value2 != "b" {
		t.Fatalf("hand-built frame mis-decoded: %+v", c)
	}
	if _, _, err := decodeFilter(frame(0x00)); err == nil ||
		!strings.Contains(err.Error(), "filter op2 0") {
		t.Fatalf("zero op2 decoded: %v", err)
	}
	if _, _, err := decodeFilter(frame(0x7F)); err == nil ||
		!strings.Contains(err.Error(), "filter op2 127") {
		t.Fatalf("unknown op2 decoded: %v", err)
	}
	for cut := 1; cut < len(valid); cut++ {
		if f, rest, err := decodeFilter(valid[:cut]); err == nil && len(rest) == 0 && f != nil {
			if c, ok := f["k"]; ok && c.Op2 == storage.OpLt {
				t.Fatalf("truncated frame (%d bytes) decoded the full condition", cut)
			}
		}
	}
}

// TestFreshReadOverWire: end to end through the v2 transport — a
// primary-served ExecReadFreshMeta reports zero observed staleness,
// and once replication is frozen and the primary moves on, a
// secondary-served read reports the real lag in whole seconds. This is
// the number the driver stamps cache fills with.
func TestFreshReadOverWire(t *testing.T) {
	env := sim.NewRealtimeEnv(47)
	cfg := cluster.DefaultConfig()
	cfg.ReadCost = 50 * time.Microsecond
	cfg.WriteCost = 100 * time.Microsecond
	cfg.ApplyCost = 20 * time.Microsecond
	cfg.RTTSameZone = 100 * time.Microsecond
	cfg.RTTCrossZoneBase = 200 * time.Microsecond
	cfg.ReplIdlePoll = time.Hour // secondaries never catch up
	cfg.DisableTailWake = true
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	srv := NewServer(env, rs, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() { srv.Close(); env.Shutdown() }()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := env.Adhoc("test")

	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "a", "v": int64(1)})
	}); err != nil {
		t.Fatal(err)
	}

	res, ts, stale, err := cl.ExecReadFreshMeta(p, rs.PrimaryID(), oplog.Zero, cluster.ReadMeta{},
		func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID("kv", "a")
			if !ok {
				return int64(-1), nil
			}
			return d.Int("v"), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) != 1 || ts == oplog.Zero {
		t.Fatalf("primary fresh read: v=%v ts=%v", res, ts)
	}
	if stale != 0 {
		t.Fatalf("primary-served read observed %ds staleness, want 0", stale)
	}

	// Let wall time pass the one-second mark, write again so the
	// primary's applied OpTime advances, then read the frozen secondary:
	// the observed staleness is the primary-to-secondary lag.
	time.Sleep(1100 * time.Millisecond)
	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Set("kv", "a", storage.D{"v": int64(2)})
	}); err != nil {
		t.Fatal(err)
	}
	sec := rs.SecondaryIDs()[0]
	_, _, stale, err = cl.ExecReadFreshMeta(p, sec, oplog.Zero, cluster.ReadMeta{},
		func(v cluster.ReadView) (any, error) {
			_, ok := v.FindByID("kv", "a")
			return ok, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stale < 1 {
		t.Fatalf("lagging secondary observed %ds staleness, want >= 1", stale)
	}
}
