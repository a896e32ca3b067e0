package simnet

import (
	"fmt"
	"sync"
	"time"
)

// This file is the party side of the pipelined downlink: a dedicated
// reader goroutine owns the connection's Recv, reassembles each round
// broadcast, and hands the complete broadcast to the training loop
// through a one-item, latest-wins slot, so the next round's broadcast is
// received (and reassembled) while the current round still trains.
//
// The server never sends a party its next broadcast before the party's
// reply to the last (under buffered-async mode too: a party pulls its
// next generation), so against a conforming server the slot is never
// overwritten and the observable behavior — computation, bytes, errors —
// is exactly the lockstep loop's.
// The slot only matters against a server that runs ahead: a broadcast the
// trainer has not picked up yet is superseded by the next one, so the
// party trains on the newest complete generation that reached it and the
// reader never stalls the socket.
//
// A session therefore holds at most maxDownlinkBufs assembly buffers
// however fast generations arrive: the one being trained on, the one
// waiting in the slot, and the one the reader is filling (which takes the
// slot over once it is complete).

// maxDownlinkBufs is the most state-length downlink assembly buffers one
// party session ever holds, and the capacity of its free list.
const maxDownlinkBufs = 3

// incomingGlobal is one complete round broadcast: its GlobalMsg, whose
// State and Control view buf, and the wire codec it arrived in (the reply
// streams back in the same codec). Whoever holds it last — the trainer,
// or the reader when a newer broadcast supersedes it — releases buf to
// the session's free list.
type incomingGlobal struct {
	GlobalMsg
	codec byte
	buf   []float64
}

// release returns the assembly buffer to free; g must not be used
// afterwards.
func (g *incomingGlobal) release(free chan []float64) {
	select {
	case free <- g.buf:
	default: // list full; let the buffer go
	}
}

// dlItem is one event from the reader to the training loop: a round
// broadcast, a clean shutdown, or a terminal error. got reports whether
// at least one server frame arrived on this conn before the error —
// proof of admission, which is what turns the party's next dial into a
// rejoin.
type dlItem struct {
	g        *incomingGlobal
	err      error
	shutdown bool
	got      bool
}

// downlinkReader owns one connection's receive direction for the
// session's lifetime on that conn.
type downlinkReader struct {
	conn Conn
	// stateLen and ctrlLen are the exact broadcast shape this party's model
	// takes: its state length, and the server control suffix (the parameter
	// count under SCAFFOLD, 0 otherwise).
	stateLen, ctrlLen int
	free              chan []float64
	quit              chan struct{}
	// clearDeadline, when non-nil, is called after the first received
	// frame to lift the hello deadline — the server answered; round gaps
	// are its RoundTimeout's business.
	clearDeadline func()

	// slot is the one event waiting for the training loop; a newer event
	// overwrites it (see push). wake has room for one token and holds one
	// whenever the slot was filled since next last looked.
	mu   sync.Mutex
	slot dlItem
	full bool
	wake chan struct{}
}

func newDownlinkReader(conn Conn, stateLen, ctrlLen int, free chan []float64, clearDeadline func()) *downlinkReader {
	return &downlinkReader{
		conn: conn, stateLen: stateLen, ctrlLen: ctrlLen, free: free,
		quit:          make(chan struct{}),
		wake:          make(chan struct{}, 1),
		clearDeadline: clearDeadline,
	}
}

// stop ends the reader: later pushes are refused and an in-flight Recv is
// best-effort unblocked. The conn close that follows every session
// teardown is the hard guarantee.
func (r *downlinkReader) stop() {
	close(r.quit)
	_ = r.conn.SetReadDeadline(time.Now())
}

// push publishes an item unless the session is tearing down, and reports
// whether it did. It never blocks: a broadcast still waiting in the slot
// is superseded — by a newer generation or by the terminal event, which
// takes precedence over a stale broadcast — and released. In sync mode
// the slot is empty whenever a broadcast arrives.
func (r *downlinkReader) push(it dlItem) bool {
	select {
	case <-r.quit:
		return false
	default:
	}
	r.mu.Lock()
	old := r.slot
	r.slot, r.full = it, true
	r.mu.Unlock()
	if old.g != nil {
		old.g.release(r.free)
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return true
}

// next returns the newest event, blocking until there is one.
func (r *downlinkReader) next() dlItem {
	for {
		r.mu.Lock()
		it, ok := r.slot, r.full
		r.slot, r.full = dlItem{}, false
		r.mu.Unlock()
		if ok {
			return it
		}
		<-r.wake
	}
}

// takeBuf returns a free assembly buffer, or nil when the list is empty
// and the caller must grow a fresh one (a session's first rounds, or a
// buffer lost to an aborted session — the list self-heals).
func (r *downlinkReader) takeBuf() []float64 {
	select {
	case b := <-r.free:
		return b
	default:
		return nil
	}
}

// loop reads frames until shutdown, conn loss, or stop. Every exit path
// pushes exactly one terminal item (or had its push refused by stop).
func (r *downlinkReader) loop() {
	first := true
	for {
		raw, err := r.conn.Recv()
		if err != nil {
			r.push(dlItem{err: err, got: !first})
			return
		}
		if first {
			first = false
			if r.clearDeadline != nil {
				r.clearDeadline()
			}
		}
		if len(raw) > 0 && raw[0] == msgGlobalChunk {
			if !r.recvBroadcast(raw) {
				return
			}
			continue
		}
		msg, err := Unmarshal(raw)
		if err != nil {
			r.push(dlItem{err: err, got: true})
			return
		}
		if _, ok := msg.(ShutdownMsg); !ok {
			r.push(dlItem{err: fmt.Errorf("unexpected message %T", msg), got: true})
			return
		}
		r.push(dlItem{shutdown: true, got: true})
		return
	}
}

// recvBroadcast reassembles one round broadcast starting from its first
// frame and publishes it once the frame marked Last has decoded. The
// first frame must declare exactly this party's stream shape — checked
// before the assembly buffer is sized from it, so a hostile header cannot
// demand an arbitrary allocation, and a server of another model or
// algorithm is refused instead of crashing the trainer. Frames on one
// conn must keep a constant header and codec and meet the contract both
// directions share (checkFrame). Each frame decodes straight into the
// buffer at its offset; a stream that fails part-way puts the buffer back
// on the free list, so the trainer never sees it. Returns false when the
// reader must exit (terminal pushed or stopped).
func (r *downlinkReader) recvBroadcast(raw []byte) bool {
	first, p, err := parseGlobalChunk(raw)
	if err != nil {
		r.push(dlItem{err: err, got: true})
		return false
	}
	total, ctrl := first.Total, first.CtrlLen
	switch {
	case ctrl != r.ctrlLen:
		err = fmt.Errorf("downlink control suffix of %d elements, this party takes %d", ctrl, r.ctrlLen)
	case total-ctrl != r.stateLen:
		err = fmt.Errorf("downlink state of %d elements, this party's model has %d", total-ctrl, r.stateLen)
	}
	if err != nil {
		r.push(dlItem{err: err, got: true})
		return false
	}
	buf := r.takeBuf()
	if cap(buf) < total {
		buf = make([]float64, total)
	}
	g := &incomingGlobal{
		GlobalMsg: GlobalMsg{Round: first.Round, Budget: first.Budget, Chunk: first.Chunk, State: buf[:r.stateLen]},
		codec:     first.Codec,
		buf:       buf[:total],
	}
	if ctrl > 0 {
		g.Control = g.buf[r.stateLen:]
	}
	fail := func(err error) bool {
		g.release(r.free)
		r.push(dlItem{err: err, got: true})
		return false
	}
	for m, done := first, 0; ; {
		if m.Round != first.Round || m.Total != total || m.CtrlLen != ctrl ||
			m.Budget != first.Budget || m.Chunk != first.Chunk || m.Codec != first.Codec {
			return fail(fmt.Errorf("downlink frame header changed mid-stream"))
		}
		if err := checkFrame(m.Offset, p.count, done, total, m.Last); err != nil {
			return fail(fmt.Errorf("downlink %w", err))
		}
		if err := p.decodeInto(g.buf[done : done+p.count]); err != nil {
			return fail(err)
		}
		if m.Last {
			if !r.push(dlItem{g: g}) {
				g.release(r.free)
				return false
			}
			return true
		}
		done += p.count
		raw, err := r.conn.Recv()
		if err != nil {
			return fail(fmt.Errorf("downlink recv: %w", err))
		}
		if m, p, err = parseGlobalChunk(raw); err != nil {
			return fail(err)
		}
	}
}
