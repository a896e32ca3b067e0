package simnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/le"
)

// readDeadliner is implemented by conns whose Recv can be bounded in time
// (TCP); in-memory pipes are trusted in-process peers and don't need it.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// recvLimiter is implemented by conns whose Recv can be bounded in size.
// The protocol sets the limit per phase (hello, then the round's largest
// legitimate frame) so a hostile length prefix is rejected before anything
// is allocated or read, not after.
type recvLimiter interface {
	SetRecvLimit(n uint32)
}

// Conn is a reliable, message-oriented duplex link between the server and
// one party. A conn has at most one sender and one receiver at a time.
type Conn interface {
	Send(b []byte) error
	// Recv returns the next message. The slice is borrowed: it is valid
	// only until the next Recv on the same Conn, because an implementation
	// may read every message into one buffer it owns (tcpConn does).
	// Receivers decode, or copy, before they read again.
	Recv() ([]byte, error)
	Close() error
}

// chanConn is an in-memory Conn built from a pair of buffered channels.
type chanConn struct {
	send   chan<- []byte
	recv   <-chan []byte
	closed chan struct{}
	// closeOnce is shared by both ends: either side (or both, racing —
	// a party closing its session while the server tears the pipe down)
	// may Close, and exactly one of them closes the shared channel.
	closeOnce *sync.Once
}

// Pipe returns two connected in-memory Conns. Every frame is copied
// through the pipe exactly as TCP would move it, so a pipe federation
// serializes, counts and decodes the same bytes a socket one does.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 4)
	ba := make(chan []byte, 4)
	closed := make(chan struct{})
	once := new(sync.Once)
	a := &chanConn{send: ab, recv: ba, closed: closed, closeOnce: once}
	b := &chanConn{send: ba, recv: ab, closed: closed, closeOnce: once}
	return a, b
}

func (c *chanConn) Send(b []byte) error {
	// Closed wins: with buffer room and a closed pipe both ready, a single
	// select would pick at random and let some sends through.
	select {
	case <-c.closed:
	default:
		select {
		case c.send <- append([]byte{}, b...):
			return nil
		case <-c.closed:
		}
	}
	return fmt.Errorf("simnet: send on closed conn")
}

func (c *chanConn) Recv() ([]byte, error) {
	// Drain pending messages before honoring close, so anything sent
	// before Close (a ShutdownMsg, say) is always deliverable — like TCP,
	// where data written before the FIN is still readable. Without this a
	// receiver entering Recv after Close races the two select cases.
	select {
	case b, ok := <-c.recv:
		if !ok {
			return nil, io.EOF
		}
		return b, nil
	default:
	}
	select {
	case b, ok := <-c.recv:
		if !ok {
			return nil, io.EOF
		}
		return b, nil
	case <-c.closed:
		// Both cases may have been ready (select picks randomly): drain
		// once more so a message sent before Close is never lost.
		select {
		case b, ok := <-c.recv:
			if ok {
				return b, nil
			}
		default:
		}
		return nil, io.EOF
	}
}

func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// tcpConn frames messages over a TCP stream with a 4-byte length prefix.
type tcpConn struct {
	c net.Conn
	// max bounds accepted frame sizes (see SetRecvLimit); atomic because
	// the goroutine that sets it is not the one that reads the conn.
	max atomic.Uint32
	// rbuf is the buffer Recv lends out (see Conn.Recv); it grows to the
	// largest frame seen, up to recvKeep.
	rbuf []byte
}

// recvKeep caps the receive buffer a tcpConn retains: enough for a frame
// at the default -chunk 65536 (512 KiB of payload plus its header).
// Larger frames — whole-vector framing at -chunk 0 — are read into a
// one-off allocation, so K conns never pin K state-length buffers.
const recvKeep = 1 << 20

// NewTCPConn wraps a net.Conn in length-prefixed message framing.
func NewTCPConn(c net.Conn) Conn {
	t := &tcpConn{c: c}
	t.max.Store(maxMsg)
	return t
}

// maxMsg is the absolute frame-size ceiling; SetRecvLimit can only lower
// it.
const maxMsg = 1 << 30

// SetRecvLimit bounds the next Recvs to frames of at most n bytes
// (implements recvLimiter); 0 or anything above the ceiling restores the
// ceiling.
func (t *tcpConn) SetRecvLimit(n uint32) {
	if n == 0 || n > maxMsg {
		n = maxMsg
	}
	t.max.Store(n)
}

func (t *tcpConn) Send(b []byte) error {
	var hdr [4]byte
	// One writev for prefix and body: with TCP_NODELAY two Writes are two
	// syscalls and a 4-byte segment that wakes the peer for nothing.
	v := net.Buffers{le.AppendU32(hdr[:0], uint32(len(b))), b}
	_, err := v.WriteTo(t.c)
	return err
}

func (t *tcpConn) Recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
		return nil, err
	}
	n := le.NewReader(hdr[:]).U32()
	if max := t.max.Load(); n > max {
		return nil, fmt.Errorf("simnet: message of %d bytes exceeds limit %d", n, max)
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

func (t *tcpConn) Close() error { return t.c.Close() }

// SetReadDeadline bounds the next Recv (implements readDeadliner).
func (t *tcpConn) SetReadDeadline(d time.Time) error { return t.c.SetReadDeadline(d) }

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

// SetReadDeadline forwards to the inner conn when it supports deadlines
// and is a no-op otherwise (in-memory pipes).
func (c *CountingConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.Inner.(readDeadliner); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

// SetRecvLimit forwards to the inner conn when it supports receive-size
// limits and is a no-op otherwise (in-memory pipes).
func (c *CountingConn) SetRecvLimit(n uint32) {
	if l, ok := c.Inner.(recvLimiter); ok {
		l.SetRecvLimit(n)
	}
}

// Sent returns the total payload bytes sent.
func (c *CountingConn) Sent() int64 { return c.sentBytes.Load() }

// Received returns the total payload bytes received.
func (c *CountingConn) Received() int64 { return c.recvBytes.Load() }
