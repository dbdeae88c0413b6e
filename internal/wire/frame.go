package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// V2 is the protocol version: a 4-byte big-endian length prefix
// followed by the binary body encoding in binary.go, with BSON-lite
// document payloads. It is the only version a server speaks; the JSON
// protocol v1 is retired.
const V2 = 2

// helloMagic opens the hello both sides exchange before any frame: 4
// magic bytes followed by one byte carrying a version — the highest
// the client speaks, and in the server's reply the version the
// connection will use. As a big-endian length the magic reads as
// ~3.5 GiB, far beyond MaxFrame, so it can never be mistaken for the
// start of a frame, and a peer that opens with a frame instead (a
// client of the retired v1 protocol) is refused at its first four
// bytes.
var helloMagic = [4]byte{0xDC, 0xF2, 0x57, 0x50}

// helloLen is the size of both the client hello and the server reply.
const helloLen = 5

// handshakeTimeout bounds a client's TCP dial and, separately, its
// hello exchange: a peer that accepts but never answers (a stopped
// server, a black hole) fails the dial instead of blocking it — and
// every caller queued behind the client's connection lock — forever.
const handshakeTimeout = 3 * time.Second

// errNoHello is the server's verdict on a peer whose first bytes are
// not a hello.
var errNoHello = errors.New("wire: protocol v1 is retired: peer opened without a hello")

// Handshake runs the client side of the hello exchange on a freshly
// dialed connection, bounded by handshakeTimeout. Raw protocol probes
// call it before WriteFrame/ReadFrame.
func Handshake(c net.Conn) error {
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	var buf [helloLen]byte
	copy(buf[:4], helloMagic[:])
	buf[4] = V2
	if _, err := c.Write(buf[:]); err != nil {
		return err
	}
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		return err
	}
	if [4]byte(buf[:4]) != helloMagic {
		return fmt.Errorf("wire: bad handshake reply %x", buf[:4])
	}
	if buf[4] != V2 {
		return fmt.Errorf("wire: server negotiated unsupported version %d", buf[4])
	}
	return c.SetDeadline(time.Time{})
}

// negotiate performs the server side of the handshake. It reads the
// first four bytes and refuses the peer unless they are the hello
// magic — before any frame body is read — then reads the advertised
// version and replies with V2.
func negotiate(r io.Reader, w io.Writer) error {
	var hello [helloLen]byte
	if _, err := io.ReadFull(r, hello[:4]); err != nil {
		return err
	}
	if [4]byte(hello[:4]) != helloMagic {
		return errNoHello
	}
	if _, err := io.ReadFull(r, hello[4:]); err != nil {
		return err
	}
	if hello[4] < V2 {
		return fmt.Errorf("wire: client advertised version %d", hello[4])
	}
	hello[4] = V2
	_, err := w.Write(hello[:])
	return err
}

// WriteFrame encodes req as one v2 frame and writes it to w — the
// request half of a raw protocol probe (see Handshake).
func WriteFrame(w io.Writer, req *Request) error {
	p := getBuf()
	defer putBuf(p)
	buf, err := encodeRequest(beginFrame((*p)[:0]), req)
	if err == nil {
		err = finishFrame(buf, 0)
	}
	if err != nil {
		return err
	}
	*p = buf
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one v2 response frame from r into resp — the
// response half of a raw protocol probe. It reads exactly one frame,
// so successive calls on a connection stay in step.
func ReadFrame(r io.Reader, resp *Response) error {
	fr := frameReader{r: r}
	body, err := fr.next()
	if err != nil {
		return err
	}
	return decodeResponse(body, resp)
}

// framePool recycles frame-encoding buffers across requests. Buffers
// that grew beyond pooledBufCap are dropped rather than pooled, so one
// huge response does not pin memory forever.
const pooledBufCap = 1 << 20

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return framePool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > pooledBufCap {
		return
	}
	*p = (*p)[:0]
	framePool.Put(p)
}

// beginFrame reserves the 4-byte length header; finishFrame patches it
// once the body has been appended after it.
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0)
}

func finishFrame(b []byte, start int) error {
	n := len(b) - start - 4
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start:start+4], uint32(n))
	return nil
}

// frameReader reads length-prefixed frame bodies into a buffer reused
// across calls — one allocation per connection, not per frame. The
// returned slice is only valid until the next call; decoders must copy
// what they keep (BSON-lite decoding does: strings are interned or
// copied, byte values are copied).
//
// The reader is resumable across transient read errors: partial header
// or body progress is retained in the struct, so a caller that gets a
// read-deadline timeout (the server's idle-timeout probe) can call
// next again and continue mid-frame without desynchronizing the
// stream.
type frameReader struct {
	r   io.Reader
	buf []byte

	hdr    [4]byte
	hn     int  // header bytes read so far
	inBody bool // header complete; bn tracks body progress
	bn     int
}

// midFrame reports whether a frame is partially read — the signal that
// a timed-out connection is stalled mid-frame rather than idle between
// requests.
func (fr *frameReader) midFrame() bool { return fr.hn > 0 || fr.inBody }

func (fr *frameReader) next() ([]byte, error) {
	if !fr.inBody {
		for fr.hn < 4 {
			n, err := fr.r.Read(fr.hdr[fr.hn:])
			fr.hn += n
			if err != nil {
				return nil, err
			}
		}
		size := binary.BigEndian.Uint32(fr.hdr[:])
		if size > MaxFrame {
			return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
		}
		if uint32(cap(fr.buf)) < size {
			fr.buf = make([]byte, size)
		}
		fr.buf = fr.buf[:size]
		fr.bn = 0
		fr.inBody = true
	}
	for fr.bn < len(fr.buf) {
		n, err := fr.r.Read(fr.buf[fr.bn:])
		fr.bn += n
		if err != nil {
			return nil, err
		}
	}
	fr.hn, fr.inBody = 0, false
	return fr.buf, nil
}
