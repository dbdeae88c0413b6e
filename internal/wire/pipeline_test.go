package wire

// Tests for per-connection request pipelining: multiple requests in
// flight on one socket, responses matched back by id in completion
// order rather than arrival order.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/oplog"
	"decongestant/internal/storage"
)

func muxKey(i int) string { return fmt.Sprintf("key%03d", i) }

// TestPipelinedResponsesOutOfOrder proves the server really pipelines:
// a read carrying an afterClusterTime beyond the node's applied optime
// blocks in dispatch, a ping sent behind it on the SAME connection
// completes first, and once a write advances the optime the blocked
// read's response arrives tagged with its original request id. The
// causal blocking makes the out-of-order completion deterministic —
// no sleep-based timing.
func TestPipelinedResponsesOutOfOrder(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Seed one document and capture its commit optime. The test server
	// has the noop writer off, so nothing else advances the optime.
	_, commit, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("c", storage.D{"_id": "k", "v": int64(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if commit.IsZero() {
		t.Fatal("zero commit optime")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Handshake(conn); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// Request 101: a read on a secondary that must wait for the NEXT
	// oplog entry — it blocks server-side until the second write below.
	after := oplog.OpTime{Secs: commit.Secs, Inc: commit.Inc + 1}
	blocked := &Request{
		ID: 101, Op: OpFindByID, Node: 1, Collection: "c", DocID: "k",
		AfterSecs: after.Secs, AfterInc: after.Inc,
	}
	if err := WriteFrame(conn, blocked); err != nil {
		t.Fatal(err)
	}
	// Request 102: a ping pipelined behind the blocked read.
	if err := WriteFrame(conn, &Request{ID: 102, Op: OpPing, Node: 1}); err != nil {
		t.Fatal(err)
	}

	var first Response
	if err := ReadFrame(conn, &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != 102 {
		t.Fatalf("first response id = %d, want the pipelined ping (102)", first.ID)
	}
	if first.Err != "" {
		t.Fatalf("ping failed: %s", first.Err)
	}

	// Unblock request 101 by committing the entry it waits for.
	if _, _, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Set("c", "k", storage.D{"v": int64(2)})
	}); err != nil {
		t.Fatal(err)
	}

	var second Response
	if err := ReadFrame(conn, &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != 101 {
		t.Fatalf("second response id = %d, want the blocked read (101)", second.ID)
	}
	if second.Err != "" {
		t.Fatalf("blocked read failed: %s", second.Err)
	}
	if !second.Found {
		t.Fatal("blocked read found no document")
	}
	if v := second.doc.Int("v"); v != 2 {
		t.Fatalf("blocked read saw v=%d, want the post-write value 2", v)
	}
}

// TestClientMultiplexesOneSocket drives many concurrent reads through
// one Client and checks every caller gets its own answer back — the
// id-matching demux under real concurrency.
func TestClientMultiplexesOneSocket(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("mux")
		for i := 0; i < 64; i++ {
			if err := c.Insert(storage.D{"_id": muxKey(i), "val": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := (g*50 + i) % 64
				res, err := cl.ExecRead(nil, want%3, func(v cluster.ReadView) (any, error) {
					d, ok := v.FindByID("mux", muxKey(want))
					if !ok {
						return nil, nil
					}
					return d, nil
				})
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				d, ok := res.(storage.Document)
				if !ok || d.Int("val") != int64(want) {
					select {
					case errs <- fmt.Errorf("got %v for key %d", res, want):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
