package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
)

// clock is the benchmark's single monotonic time base, in ns.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// spanName identifies the boundary a span was recorded at.
type spanName uint8

const (
	spanOp        spanName = iota // the public client call: Router.Read, Client.Read/Write
	spanConnRead                  // driver.Conn Exec* read entry points
	spanConnWrite                 // driver.Conn ExecWrite*
	spanViewOp                    // one ReadView op inside a read body: one round trip
)

var spanNames = [...]string{"op", "conn.exec_read", "conn.exec_write", "view.op"}

// span is one recorded interval. Spans of one request share req; ids
// number the request's spans from 1, and parent 0 marks the root.
type span struct {
	req        uint32
	id, parent uint8
	name       spanName
	kind       opKind // of the request
	start, dur int64
}

// benchProc is the process a load-generator worker runs as. It is
// passed down every public call as the sim.Proc, so the decorators
// below find the worker's current request and span buffer from it.
// spans is nil for untraced workers.
type benchProc struct {
	sim.Proc
	req   uint32
	kind  opKind
	cur   uint8
	next  uint8
	spans []span
}

func (p *benchProc) tracing() bool { return p.spans != nil }

// begin opens a span under the current one and makes it current.
func (p *benchProc) begin() (id, parent uint8, start int64) {
	p.next++
	id, parent = p.next, p.cur
	p.cur = id
	return id, parent, now()
}

// end closes a span opened by begin.
func (p *benchProc) end(name spanName, id, parent uint8, start int64) {
	p.spans = append(p.spans, span{req: p.req, id: id, parent: parent, name: name, kind: p.kind, start: start, dur: now() - start})
	p.cur = parent
}

// startRequest resets the per-request span state before a new
// operation; req ids are unique per worker-qualified request.
func (p *benchProc) startRequest(req uint32, kind opKind) {
	p.req, p.kind, p.cur, p.next = req, kind, 0, 0
}

func tracedProc(p sim.Proc) *benchProc {
	bp, ok := p.(*benchProc)
	if !ok || !bp.tracing() {
		return nil
	}
	return bp
}

// tracedConn decorates a wire client with spans around the Exec*
// entry points the workloads reach (ExecRead, ExecReadMeta,
// ExecReadFreshMeta, ExecWrite) and around each ReadView op inside read
// bodies. It embeds *wire.Client, so every optional connection
// capability the driver detects by type assertion is still promoted;
// the others run untimed.
type tracedConn struct {
	*wire.Client
}

var (
	_ driver.TracedConn       = tracedConn{}
	_ driver.FreshConn        = tracedConn{}
	_ driver.LinearizableConn = tracedConn{}
	_ driver.CausalConn       = tracedConn{}
	_ driver.OplogTailer      = tracedConn{}
	_ driver.TraceProvider    = tracedConn{}
)

type readBody = func(v cluster.ReadView) (any, error)

// wrapBody hands fn a view whose ops are recorded as spans.
func wrapBody(bp *benchProc, fn readBody) readBody {
	return func(v cluster.ReadView) (any, error) {
		return fn(&tracedView{inner: v, p: bp})
	}
}

func (c tracedConn) ExecRead(p sim.Proc, nodeID int, fn readBody) (any, error) {
	bp := tracedProc(p)
	if bp == nil {
		return c.Client.ExecRead(p, nodeID, fn)
	}
	id, parent, start := bp.begin()
	res, err := c.Client.ExecRead(p, nodeID, wrapBody(bp, fn))
	bp.end(spanConnRead, id, parent, start)
	return res, err
}

func (c tracedConn) ExecReadMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn readBody) (any, oplog.OpTime, error) {
	bp := tracedProc(p)
	if bp == nil {
		return c.Client.ExecReadMeta(p, nodeID, after, meta, fn)
	}
	id, parent, start := bp.begin()
	res, ts, err := c.Client.ExecReadMeta(p, nodeID, after, meta, wrapBody(bp, fn))
	bp.end(spanConnRead, id, parent, start)
	return res, ts, err
}

func (c tracedConn) ExecReadFreshMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn readBody) (any, oplog.OpTime, int64, error) {
	bp := tracedProc(p)
	if bp == nil {
		return c.Client.ExecReadFreshMeta(p, nodeID, after, meta, fn)
	}
	id, parent, start := bp.begin()
	res, ts, stale, err := c.Client.ExecReadFreshMeta(p, nodeID, after, meta, wrapBody(bp, fn))
	bp.end(spanConnRead, id, parent, start)
	return res, ts, stale, err
}

func (c tracedConn) ExecWrite(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, error) {
	bp := tracedProc(p)
	if bp == nil {
		return c.Client.ExecWrite(p, fn)
	}
	id, parent, start := bp.begin()
	res, err := c.Client.ExecWrite(p, fn)
	bp.end(spanConnWrite, id, parent, start)
	return res, err
}

// tracedView records each op of a read body as a span. On the wire
// client's view every op is one round trip.
type tracedView struct {
	inner cluster.ReadView
	p     *benchProc
}

func (v *tracedView) FindByID(collection, id string) (storage.Document, bool) {
	sid, parent, start := v.p.begin()
	d, ok := v.inner.FindByID(collection, id)
	v.p.end(spanViewOp, sid, parent, start)
	return d, ok
}

// FindManyByID and Count are not used by the workloads' read bodies.
func (v *tracedView) FindManyByID(collection string, ids []string) []storage.Document {
	return v.inner.FindManyByID(collection, ids)
}

func (v *tracedView) Find(collection string, f storage.Filter, limit int) []storage.Document {
	sid, parent, start := v.p.begin()
	docs := v.inner.Find(collection, f, limit)
	v.p.end(spanViewOp, sid, parent, start)
	return docs
}

func (v *tracedView) Count(collection string, f storage.Filter) int {
	return v.inner.Count(collection, f)
}

func (v *tracedView) AddUnits(u int) { v.inner.AddUnits(u) }

// spanStats derives per-layer figures from recorded spans: the client
// self time of each read (its root span minus the Conn.Exec* children),
// Conn.Exec* durations and view-op durations, all in ns.
type spanStats struct {
	clientSelf []float64 // reads only
	connExec   []float64
	viewOps    []float64
	// viewOpsRead are the view ops of point-read requests.
	viewOpsRead []float64
	spans       int
}

func analyzeSpans(buffers [][]span) spanStats {
	var st spanStats
	for _, buf := range buffers {
		st.spans += len(buf)
		// A worker's spans are appended as they close, so a request's
		// children precede its root and requests do not interleave.
		var childConn int64
		for _, s := range buf {
			switch s.name {
			case spanConnRead, spanConnWrite:
				st.connExec = append(st.connExec, float64(s.dur))
				if s.parent == 1 {
					childConn += s.dur
				}
			case spanViewOp:
				st.viewOps = append(st.viewOps, float64(s.dur))
				if s.kind == opRead {
					st.viewOpsRead = append(st.viewOpsRead, float64(s.dur))
				}
			case spanOp:
				if s.kind == opRead {
					st.clientSelf = append(st.clientSelf, float64(s.dur-childConn))
				}
				childConn = 0
			}
		}
	}
	return st
}

// writeSpans dumps every span, one per line, to path.
func writeSpans(path string, buffers [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "worker\treq\tspan\tparent\tname\top\tstart_ns\tdur_ns")
	for w, buf := range buffers {
		for _, s := range buf {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\n", w, s.req, s.id, s.parent, spanNames[s.name], s.kind, s.start, s.dur)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
