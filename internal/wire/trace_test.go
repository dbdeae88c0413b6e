package wire

import (
	"bytes"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// startTraceServer is startTestServer with an explicit ServerConfig
// and log sink, for the tracing and currentOp tests.
func startTraceServer(t *testing.T, logw io.Writer, cfg ServerConfig) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(1)
	ccfg := cluster.DefaultConfig()
	ccfg.ReadCost = 50 * time.Microsecond
	ccfg.WriteCost = 100 * time.Microsecond
	ccfg.ApplyCost = 20 * time.Microsecond
	ccfg.GetMoreCost = 20 * time.Microsecond
	ccfg.StatusCost = 20 * time.Microsecond
	ccfg.RTTSameZone = 100 * time.Microsecond
	ccfg.RTTCrossZoneBase = 200 * time.Microsecond
	ccfg.ReplIdlePoll = 2 * time.Millisecond
	ccfg.HeartbeatInterval = 50 * time.Millisecond
	ccfg.CheckpointInterval = time.Hour
	ccfg.NoopInterval = time.Hour
	rs := cluster.New(env, ccfg)
	var logger *log.Logger
	if logw != nil {
		logger = log.New(logw, "", 0)
	}
	srv := NewServerWith(env, rs, logger, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return rs, ln.Addr().String(), func() {
		srv.Close()
		env.Shutdown()
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// traceContexts enumerates the shapes a request's trace context can
// take on the wire: absent, bare ids, and a full balancer route
// snapshot riding along.
func traceContexts() []*trace.Context {
	return []*trace.Context{
		nil,
		{TraceID: 0xdeadbeef},
		{TraceID: 1, SpanID: 0xffffffffffffffff},
		{TraceID: 42, SpanID: 7, Route: &trace.Route{
			Pref: "secondary", Reason: "bal-frac", FracPct: 35, StaleSecs: 4, Gated: true,
		}},
		{TraceID: 9, Route: &trace.Route{Pref: "primary", Reason: "", FracPct: 0, StaleSecs: -1}},
	}
}

func sameContext(a, b *trace.Context) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.TraceID != b.TraceID || a.SpanID != b.SpanID {
		return false
	}
	if (a.Route == nil) != (b.Route == nil) {
		return false
	}
	if a.Route == nil {
		return true
	}
	return *a.Route == *b.Route
}

// TestTraceContextRoundTripBothCodecs drives the same request —
// context shapes from absent to full-route, plus the audited bound and
// a span payload — through the v2 binary codec. (The name dates from
// when the JSON codec was also driven.)
func TestTraceContextRoundTripBothCodecs(t *testing.T) {
	for i, tc := range traceContexts() {
		in := Request{ID: uint64(i + 1), Op: OpFind, Node: 1, Collection: "c", Trace: tc}
		if i%2 == 1 {
			in.BoundSecs = int64(3 + i)
		}
		if i == 3 {
			in.Spans = []trace.Span{{
				Trace: 42, ID: 5, Parent: 7, Name: "client.exec_read", Node: -1,
				Start: time.Second, Dur: time.Millisecond,
				Attrs: []trace.Attr{{K: "node", V: "1"}},
			}}
		}

		body, err := encodeRequest(nil, &in)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		var v2 Request
		if err := decodeRequest(body, &v2); err != nil {
			t.Fatalf("case %d: decode v2: %v", i, err)
		}
		checkTraceRequest(t, i, "v2", &in, &v2)
	}
}

func checkTraceRequest(t *testing.T, i int, codec string, in, out *Request) {
	t.Helper()
	// A context with TraceID 0 is dead weight; the binary codec drops it
	// outright, so compare it as absent.
	want := in.Trace
	if want != nil && want.TraceID == 0 {
		want = nil
	}
	if !sameContext(want, out.Trace) {
		t.Fatalf("case %d (%s): trace context mismatch: %+v vs %+v", i, codec, want, out.Trace)
	}
	if out.BoundSecs != in.BoundSecs {
		t.Fatalf("case %d (%s): bound %d vs %d", i, codec, out.BoundSecs, in.BoundSecs)
	}
	if len(out.Spans) != len(in.Spans) {
		t.Fatalf("case %d (%s): %d spans vs %d", i, codec, len(out.Spans), len(in.Spans))
	}
	for j := range in.Spans {
		a, b := in.Spans[j], out.Spans[j]
		if a.Trace != b.Trace || a.ID != b.ID || a.Parent != b.Parent ||
			a.Name != b.Name || a.Node != b.Node || a.Start != b.Start || a.Dur != b.Dur ||
			len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("case %d (%s): span mismatch: %+v vs %+v", i, codec, a, b)
		}
	}
}

// TestResponseSpansOpsRoundTrip covers the trace export side of the
// codec: spans and currentOp infos in a response body.
func TestResponseSpansOpsRoundTrip(t *testing.T) {
	in := Response{
		ID: 3,
		Spans: []trace.Span{
			{Trace: 8, ID: 1, Name: "server.dispatch", Node: 2, Start: time.Second, Dur: time.Millisecond},
			{Trace: 8, ID: 2, Parent: 1, Name: "node.exec_read", Node: 2},
		},
		Ops: []trace.OpInfo{
			{ID: 11, Op: OpFind, Collection: "c", Node: 1, Trace: 8, Start: time.Second, RunningNS: 500},
		},
	}
	body, err := encodeResponse(nil, &in)
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := decodeResponse(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 2 || out.Spans[0].Name != "server.dispatch" || out.Spans[1].Parent != 1 {
		t.Fatalf("spans mismatch: %+v", out.Spans)
	}
	if len(out.Ops) != 1 || out.Ops[0].ID != 11 || out.Ops[0].Trace != 8 || out.Ops[0].RunningNS != 500 {
		t.Fatalf("ops mismatch: %+v", out.Ops)
	}
}

// TestDecodeTraceContextRejectsCorruption spot-checks the corruption
// classes the fuzzer explores: zero trace id, bad flag bytes, and
// oversized route strings must all be frame errors.
func TestDecodeTraceContextRejectsCorruption(t *testing.T) {
	valid, err := encodeRequest(nil, &Request{
		ID: 1, Op: OpFind, Node: 1,
		Trace: &trace.Context{TraceID: 5, SpanID: 6, Route: &trace.Route{Pref: "secondary"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ok Request
	if err := decodeRequest(valid, &ok); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}

	cases := map[string][]byte{
		"zero trace id":    {rqTrace, 0x00, 0x06, 0x00},
		"truncated ids":    {rqTrace, 0x85},
		"bad route flag":   {rqTrace, 0x05, 0x06, 0x02},
		"truncated route":  {rqTrace, 0x05, 0x06, 0x01, 0x03, 'a'},
		"oversized pref":   {rqTrace, 0x05, 0x06, 0x01, 0xFF, 0x01},
		"bad gated flag":   append([]byte{rqTrace, 0x05, 0x06, 0x01, 0x00, 0x00, 0x00, 0x00}, 0x07),
		"huge span blob":   {rqSpans, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated bound":  {rqBound, 0x80},
		"huge spans count": {rqSpans, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, body := range cases {
		var r Request
		if err := decodeRequest(body, &r); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
}

// TestEncodeRequestSamplingOffZeroAllocs is the CI alloc gate for the
// v2 hot path: encoding a find request with no trace context into a
// preallocated buffer must not allocate — the tracing fields cost
// nothing when sampling is off.
func TestEncodeRequestSamplingOffZeroAllocs(t *testing.T) {
	req := Request{ID: 1, Op: OpFind, Node: 1, Collection: "orders", Limit: 10,
		AfterSecs: 5, AfterInc: 2}
	req.filter = storage.Filter{"w": storage.Eq(int64(2))}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if _, err = encodeRequest(buf[:0], &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encodeRequest with tracing off allocates %.1f times per op, want 0", allocs)
	}
}

// TestWireEndToEndTraceTree is the acceptance path: one trace id,
// sampled at the client, yields a causally linked span tree — client
// exec → server admission/dispatch → node exec — retrievable through
// the trace wire op after the client pushes its local spans.
func TestWireEndToEndTraceTree(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTraceSampling(1)

	if _, err := cl.ExecWrite(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "a", "v": int64(1)})
	}); err != nil {
		t.Fatal(err)
	}
	// ExecRead is the untraced fast path; a traced read originates its
	// context (here via the rate-1 sampler) and goes through
	// ExecReadMeta, exactly as the driver does per sampled read.
	if _, _, err := cl.ExecReadMeta(nil, 0, oplog.Zero,
		cluster.ReadMeta{Ctx: cl.Tracer().StartTrace()},
		func(v cluster.ReadView) (any, error) {
			v.FindByID("kv", "a")
			return nil, nil
		}); err != nil {
		t.Fatal(err)
	}
	if err := cl.PushTraces(); err != nil {
		t.Fatal(err)
	}

	// The client recorder drained into the server; find the read's
	// trace id from the server's recent spans.
	var traceID uint64
	for _, s := range rs.Tracer().Recent(0) {
		if s.Name == "client.exec_read" {
			traceID = s.Trace
			break
		}
	}
	if traceID == 0 {
		t.Fatal("no client.exec_read span reached the server")
	}

	spans, err := cl.FetchTrace(traceID)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]trace.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	for _, name := range []string{"client.exec_read", "server.admission", "server.dispatch", "node.exec_read"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace %s missing span %q; got %+v", trace.IDString(traceID), name, spans)
		}
	}
	client := byName["client.exec_read"]
	if byName["server.admission"].Parent != client.ID {
		t.Fatalf("admission span parent %x, want client span %x", byName["server.admission"].Parent, client.ID)
	}
	if byName["server.dispatch"].Parent != client.ID {
		t.Fatalf("dispatch span parent %x, want client span %x", byName["server.dispatch"].Parent, client.ID)
	}
	exec := byName["node.exec_read"]
	if exec.Parent != byName["server.dispatch"].ID {
		t.Fatalf("exec span parent %x, want dispatch span %x", exec.Parent, byName["server.dispatch"].ID)
	}
	if exec.Node != 0 {
		t.Fatalf("exec span on node %d, want 0", exec.Node)
	}
	found := false
	for _, a := range byName["server.dispatch"].Attrs {
		if a.K == "op" && a.V == OpFindByID {
			found = true
		}
	}
	if !found {
		t.Fatalf("dispatch span lacks op attr: %+v", byName["server.dispatch"].Attrs)
	}
}

// TestWireCurrentOp asserts an in-flight request shows up in the
// currentOp export with its op name and node, and disappears once it
// completes.
func TestWireCurrentOp(t *testing.T) {
	_, addr, stop := startTraceServer(t, nil, ServerConfig{CurrentOp: true})
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Park a causal read on an OpTime one past the last commit; it
	// stays in dispatch until the next write lands.
	_, commit, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "a", "v": int64(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		after := commit
		after.Inc++
		_, _, err := cl.ExecReadAfter(nil, 0, after, func(v cluster.ReadView) (any, error) {
			v.FindByID("kv", "a")
			return nil, nil
		})
		blocked <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for time.Now().Before(deadline) {
		ops, err := cl.CurrentOp()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Op == OpFindByID && op.Node == 0 && op.ID != 0 {
				seen = true
			}
		}
		if seen {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !seen {
		t.Fatal("blocked read never appeared in currentOp")
	}

	if _, err := cl.ExecWrite(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "b", "v": int64(2)})
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	// Drained: the read leaves the registry once it completes. (The
	// currentOp request itself is in dispatch while it snapshots, so
	// the registry is never literally empty — filter to the find.)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ops, err := cl.CurrentOp()
		if err != nil {
			t.Fatal(err)
		}
		gone := true
		for _, op := range ops {
			if op.Op == OpFindByID {
				gone = false
			}
		}
		if gone {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("currentOp never drained after the read completed")
}

// TestSlowOpRetroTraceAndLog asserts always-on-slow sampling: with
// sampling off, a request crossing the slow threshold still lands a
// server.dispatch span in the recorder, and the log line carries its
// trace id and a route placeholder.
func TestSlowOpRetroTraceAndLog(t *testing.T) {
	var logBuf syncBuffer
	rs, addr, stop := startTraceServer(t, &logBuf, ServerConfig{SlowOpThreshold: time.Nanosecond})
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
		v.FindByID("kv", "nope")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	var dispatch []trace.Span
	for _, s := range rs.Tracer().Recent(0) {
		if s.Name == "server.dispatch" {
			dispatch = append(dispatch, s)
		}
	}
	if len(dispatch) == 0 {
		t.Fatal("slow op recorded no retroactive dispatch span")
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "slow op") ||
		!strings.Contains(logged, "trace="+trace.IDString(dispatch[len(dispatch)-1].Trace)) {
		t.Fatalf("slow-op log missing trace id: %q", logged)
	}
	if !strings.Contains(logged, "route=-") {
		t.Fatalf("unsampled slow op should log route=-: %q", logged)
	}
	snap := rs.Metrics().Snapshot()
	if got := snap.CounterValue("wire.slow_ops"); got == 0 {
		t.Fatal("slow op not counted")
	}
}
