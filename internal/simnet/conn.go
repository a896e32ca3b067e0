package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/le"
)

// Conn is a reliable, message-oriented duplex link between the server and
// one party. A conn has at most one sender and one receiver at a time.
// Under every conn is a framed net.Conn (see newFrameConn) — a TCP socket,
// or one end of an in-memory net.Pipe — so every conn honours read
// deadlines and receive limits alike.
type Conn interface {
	Send(b []byte) error
	// Recv returns the next message. The slice is borrowed: it is valid
	// only until the next Recv on the same Conn, because an implementation
	// may read every message into one buffer it owns (frameConn does).
	// Receivers decode, or copy, before they read again.
	Recv() ([]byte, error)
	Close() error
	// SetReadDeadline bounds the next Recvs in time; the zero time lifts
	// the bound.
	SetReadDeadline(t time.Time) error
	// SetRecvLimit bounds the next Recvs to frames of at most n bytes. The
	// protocol sets the limit per phase (hello, then the round's largest
	// legitimate frame), so a hostile length prefix is refused before
	// anything is allocated or read, not after.
	SetRecvLimit(n uint32)
}

// frameConn frames messages over a net.Conn stream with a 4-byte length
// prefix.
type frameConn struct {
	c net.Conn
	// max bounds accepted frame sizes (see SetRecvLimit); atomic because
	// the goroutine that sets it is not the one that reads the conn.
	max atomic.Uint32
	// rbuf is the buffer Recv lends out (see Conn.Recv); it grows to the
	// largest frame seen, up to recvKeep.
	rbuf []byte
	// The length prefixes and Send's write vector live here, reused frame
	// after frame (a conn has one sender and one receiver at a time), so
	// neither direction allocates per frame.
	rhdr, whdr [4]byte
	vec        [2][]byte
	wv         net.Buffers
}

// recvKeep caps the receive buffer a frameConn retains: enough for a frame
// at the default -chunk 65536 (512 KiB of payload plus its header).
// Larger frames — whole-vector framing at -chunk 0 — are read into a
// one-off allocation, so K conns never pin K state-length buffers.
const recvKeep = 1 << 20

// newFrameConn wraps a net.Conn in length-prefixed message framing.
func newFrameConn(c net.Conn) Conn {
	t := &frameConn{c: c}
	t.max.Store(maxMsg)
	return t
}

// maxMsg is the absolute frame-size ceiling; SetRecvLimit can only lower
// it.
const maxMsg = 1 << 30

// errFrameLimit is the receive limit's refusal: the peer framed a message
// larger than the protocol allows in the current phase. That is a protocol
// violation, not transport loss, and the conn is no longer in step with
// its framing.
var errFrameLimit = errors.New("simnet: frame exceeds the receive limit")

// SetRecvLimit implements Conn; 0 or anything above the ceiling restores
// the ceiling.
func (t *frameConn) SetRecvLimit(n uint32) {
	if n == 0 || n > maxMsg {
		n = maxMsg
	}
	t.max.Store(n)
}

func (t *frameConn) Send(b []byte) error {
	// One writev for prefix and body: with TCP_NODELAY two Writes are two
	// syscalls and a 4-byte segment that wakes the peer for nothing.
	t.vec = [2][]byte{le.AppendU32(t.whdr[:0], uint32(len(b))), b}
	t.wv = t.vec[:]
	_, err := t.wv.WriteTo(t.c)
	return err
}

func (t *frameConn) Recv() ([]byte, error) {
	if _, err := io.ReadFull(t.c, t.rhdr[:]); err != nil {
		return nil, err
	}
	n := le.NewReader(t.rhdr[:]).U32()
	if max := t.max.Load(); n > max {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", errFrameLimit, n, max)
	}
	b := t.rbuf
	if int(n) > cap(b) {
		b = make([]byte, n)
		if n <= recvKeep {
			t.rbuf = b
		}
	}
	b = b[:n]
	if _, err := io.ReadFull(t.c, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (t *frameConn) Close() error { return t.c.Close() }

// SetReadDeadline implements Conn.
func (t *frameConn) SetReadDeadline(d time.Time) error { return t.c.SetReadDeadline(d) }

// CountingConn wraps a Conn and tallies bytes in each direction.
type CountingConn struct {
	Inner     Conn
	sentBytes atomic.Int64
	recvBytes atomic.Int64
}

// NewCountingConn wraps inner with byte accounting.
func NewCountingConn(inner Conn) *CountingConn { return &CountingConn{Inner: inner} }

// Send forwards to the inner conn, counting payload bytes.
func (c *CountingConn) Send(b []byte) error {
	if err := c.Inner.Send(b); err != nil {
		return err
	}
	c.sentBytes.Add(int64(len(b)))
	return nil
}

// Recv forwards to the inner conn, counting payload bytes.
func (c *CountingConn) Recv() ([]byte, error) {
	b, err := c.Inner.Recv()
	if err != nil {
		return nil, err
	}
	c.recvBytes.Add(int64(len(b)))
	return b, nil
}

// Close closes the inner conn.
func (c *CountingConn) Close() error { return c.Inner.Close() }

// SetReadDeadline forwards to the inner conn.
func (c *CountingConn) SetReadDeadline(t time.Time) error { return c.Inner.SetReadDeadline(t) }

// SetRecvLimit forwards to the inner conn.
func (c *CountingConn) SetRecvLimit(n uint32) { c.Inner.SetRecvLimit(n) }

// Sent returns the total payload bytes sent.
func (c *CountingConn) Sent() int64 { return c.sentBytes.Load() }

// Received returns the total payload bytes received.
func (c *CountingConn) Received() int64 { return c.recvBytes.Load() }
