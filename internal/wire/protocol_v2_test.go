package wire

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/storage"
)

// allTypesDoc exercises every value type of the canonical document
// model: nil, both bools, int64 (including values above 2^53, which a
// float64 detour would corrupt), float64, string, []byte, arrays and
// nested documents.
func allTypesDoc(id string) storage.D {
	return storage.D{
		"_id":   id,
		"nil":   nil,
		"true":  true,
		"false": false,
		"int":   int64(-42),
		"big":   int64(1)<<53 + 1,
		"float": 2.718281828,
		"str":   "héllo, wire",
		"bytes": []byte{0x00, 0x01, 0xFE, 0xFF, '$'},
		"arr":   []any{int64(1), "two", 3.5, []byte{9}, storage.D{"in": true}},
		"doc":   storage.D{"nested": storage.D{"deep": int64(7)}, "b": []byte("raw")},
	}
}

// insertDoc writes one document through the client's transaction API.
func insertDoc(t *testing.T, cl *Client, doc storage.D) {
	t.Helper()
	if _, err := cl.ExecWrite(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("types", doc)
	}); err != nil {
		t.Fatal(err)
	}
}

// readDoc fetches one document by id from the primary.
func readDoc(t *testing.T, cl *Client, id string) storage.Document {
	t.Helper()
	res, err := cl.ExecRead(nil, cl.PrimaryID(), func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID("types", id)
		if !ok {
			return nil, fmt.Errorf("doc %s missing", id)
		}
		return d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.(storage.Document)
}

// TestValueTypesRoundTripBothCodecs writes and reads back a document
// holding every supported value type — int64 above 2^53, []byte,
// float and nested documents included — detecting any loss in either
// direction of the v2 codec. (The name dates from when a JSON codec
// was also on the matrix.)
func TestValueTypesRoundTripBothCodecs(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	want, err := allTypesDoc("all").Normalized()
	if err != nil {
		t.Fatal(err)
	}
	insertDoc(t, cl, allTypesDoc("all"))
	got := readDoc(t, cl, "all")
	if !storage.Equal(want, got) {
		t.Fatalf("round trip mismatch:\n want %v\n got  %v", want, got)
	}
	if _, ok := got["bytes"].([]byte); !ok {
		t.Fatalf("bytes value decoded as %T", got["bytes"])
	}
	if got["big"] != int64(1)<<53+1 {
		t.Fatalf("int64 above 2^53 came back as %v", got["big"])
	}
}

// TestDialSilentPeerTimesOut: a peer that accepts the TCP connection
// but never answers the hello must fail Dial within the handshake
// bound instead of blocking it forever.
func TestDialSilentPeerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c) // accept, then stay silent
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		cl, err := Dial(ln.Addr().String())
		if err == nil {
			cl.Close()
		}
		done <- err
	}()
	bound := handshakeTimeout + 2*time.Second
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Dial succeeded against a silent peer")
		}
		t.Logf("Dial failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
	case <-time.After(bound):
		t.Fatalf("Dial still blocked after %v against a silent peer", bound)
	}
}

// TestRetiredProtocolRefused: a peer that opens with a length-prefixed
// JSON frame (protocol v1) instead of a hello has its connection
// closed without a single response byte, the refusal is logged, and
// the same listener keeps serving v2 clients.
func TestRetiredProtocolRefused(t *testing.T) {
	var logBuf syncBuffer
	_, addr, stop := startTraceServer(t, &logBuf, ServerConfig{})
	defer stop()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	body := []byte(`{"id":1,"op":"ping"}`)
	frame := append([]byte{0, 0, 0, byte(len(body))}, body...)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("server answered a v1 frame with %d bytes: %q", len(got), got)
	}
	if !strings.Contains(logBuf.String(), "protocol v1 is retired") {
		t.Fatalf("refusal not logged; log:\n%s", logBuf.String())
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	insertDoc(t, cl, storage.D{"_id": "after", "v": int64(1)})
	if d := readDoc(t, cl, "after"); d.Int("v") != 1 {
		t.Fatalf("v2 read after refusal returned %v", d)
	}
}

// snapshotReading finds one instrument in a snapshot by exact name.
func snapshotReading(snap obs.Snapshot, name string) (obs.Instrument, bool) {
	for _, ins := range snap.Instruments {
		if ins.Name == name {
			return ins, true
		}
	}
	return obs.Instrument{}, false
}

// TestWireTransportInstruments drives traffic and asserts the
// transport telemetry — the connection gauge, frame/byte volume and
// decode errors — through the ordinary metrics op.
func TestWireTransportInstruments(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	v2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	insertDoc(t, v2, storage.D{"_id": "x", "v": int64(1)})
	readDoc(t, v2, "x")

	snap, err := v2.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name string
		kind string
	}{
		{obs.Name("wire.conns", "ver", "2"), obs.KindGauge},
		{"wire.frames_in", obs.KindCounter},
		{"wire.frames_out", obs.KindCounter},
		{"wire.bytes_in", obs.KindCounter},
		{"wire.bytes_out", obs.KindCounter},
		{"wire.decode_errors", obs.KindCounter},
	} {
		ins, ok := snapshotReading(snap, want.name)
		if !ok {
			t.Fatalf("instrument %q missing from metrics", want.name)
		}
		if ins.Kind != want.kind {
			t.Fatalf("instrument %q is a %s, want %s", want.name, ins.Kind, want.kind)
		}
	}
	if g, _ := snapshotReading(snap, obs.Name("wire.conns", "ver", "2")); g.Value != 1 {
		t.Fatalf("v2 conn gauge = %d, want 1", g.Value)
	}
	fin, _ := snapshotReading(snap, "wire.frames_in")
	fout, _ := snapshotReading(snap, "wire.frames_out")
	bin, _ := snapshotReading(snap, "wire.bytes_in")
	if fin.Count == 0 || fout.Count == 0 || bin.Count == 0 {
		t.Fatalf("zero frame/byte volume: in=%d out=%d bytes_in=%d", fin.Count, fout.Count, bin.Count)
	}

	// A corrupt binary frame must bump the decode-error counter and
	// drop only the offending connection.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := Handshake(raw); err != nil {
		t.Fatal(err)
	}
	// Length-prefixed garbage: tag 99 is not a request field.
	if _, err := raw.Write([]byte{0, 0, 0, 2, 99, 99}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept a connection that sent a corrupt frame")
	}
	raw.Close()

	snap, err = v2.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	derr, _ := snapshotReading(snap, "wire.decode_errors")
	if derr.Count == 0 {
		t.Fatal("decode_errors not incremented by corrupt frame")
	}
}

// TestBinaryFilterOps checks every filter operator survives the v2
// codec (conditions travel as BSON-lite values, not JSON).
func TestBinaryFilterOps(t *testing.T) {
	f := storage.Filter{
		"a": storage.Eq(int64(5)),
		"b": storage.Ne("x"),
		"c": storage.Gt(1.5),
		"d": storage.Gte(int64(2)),
		"e": storage.Lt(int64(10)),
		"f": storage.Lte(int64(10)),
		"g": storage.In(int64(1), "two", 3.0),
		"h": storage.Exists(),
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
	if len(dec) != len(f) {
		t.Fatalf("decoded %d conds, want %d", len(dec), len(f))
	}
	match, err := storage.D{
		"a": int64(5), "b": "y", "c": 2.0, "d": int64(2),
		"e": int64(9), "f": int64(10), "g": "two", "h": nil,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Matches(match) {
		t.Fatal("decoded filter rejects matching doc")
	}
	if dec.Matches(storage.D{"a": int64(6)}) {
		t.Fatal("decoded filter accepts non-matching doc")
	}
}

// TestBinaryRequestResponseRoundTrip covers the non-document request
// and response fields end to end through the v2 body codec.
func TestBinaryRequestResponseRoundTrip(t *testing.T) {
	in := Request{
		ID: 12345, Op: OpFind, Node: 2, Collection: "orders", DocID: "d1",
		IDs: []string{"a", "b", "c"}, Limit: 7,
		AfterSecs: 99, AfterInc: 3, Source: "bal",
	}
	in.filter = storage.Filter{"w": storage.Eq(int64(4))}
	body, err := encodeRequest(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := decodeRequest(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Op != in.Op || out.Node != in.Node ||
		out.Collection != in.Collection || out.DocID != in.DocID ||
		out.Limit != in.Limit || out.AfterSecs != in.AfterSecs ||
		out.AfterInc != in.AfterInc || out.Source != in.Source ||
		len(out.IDs) != 3 || out.IDs[2] != "c" || out.filter == nil {
		t.Fatalf("request mismatch: %+v", out)
	}

	// Unknown op names travel by string so the server can reject them
	// with its usual error, not a frame error.
	bogus := Request{ID: 1, Op: "bogus"}
	body, err = encodeRequest(nil, &bogus)
	if err != nil {
		t.Fatal(err)
	}
	var bout Request
	if err := decodeRequest(body, &bout); err != nil {
		t.Fatal(err)
	}
	if bout.Op != "bogus" {
		t.Fatalf("unknown op travelled as %q", bout.Op)
	}

	doc, err := allTypesDoc("r1").Normalized()
	if err != nil {
		t.Fatal(err)
	}
	resp := Response{
		ID: 54321, Err: "boom", Found: true, Count: 11,
		OpSecs: 77, OpInc: 5,
		Topo:   &Topology{Primary: 1, Zones: []string{"z0", "z1"}},
		Status: &StatusBody{From: 1, Primary: 0, Members: []Member{{ID: 0, Primary: true, Secs: 9, Inc: 2}}},
	}
	resp.doc = doc
	resp.docs = []storage.Document{doc, doc}
	body, err = encodeResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var rout Response
	if err := decodeResponse(body, &rout); err != nil {
		t.Fatal(err)
	}
	if rout.ID != resp.ID || rout.Err != resp.Err || !rout.Found ||
		rout.Count != resp.Count || rout.OpSecs != resp.OpSecs || rout.OpInc != resp.OpInc {
		t.Fatalf("response scalar mismatch: %+v", rout)
	}
	if rout.Topo == nil || rout.Topo.Primary != 1 || strings.Join(rout.Topo.Zones, ",") != "z0,z1" {
		t.Fatalf("topo mismatch: %+v", rout.Topo)
	}
	if rout.Status == nil || len(rout.Status.Members) != 1 || !rout.Status.Members[0].Primary {
		t.Fatalf("status mismatch: %+v", rout.Status)
	}
	if !storage.Equal(doc, rout.doc) {
		t.Fatalf("doc mismatch: %v", rout.doc)
	}
	if len(rout.docs) != 2 || !storage.Equal(doc, rout.docs[1]) {
		t.Fatalf("docs mismatch: %v", rout.docs)
	}
}
