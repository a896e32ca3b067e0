package simnet

import (
	"fmt"
	"sync"
	"time"
)

// This file is the party side of the pipelined downlink: a dedicated
// reader goroutine owns the connection's Recv and hands the training
// loop incomingGlobal handles through a one-item, latest-wins slot, so
// the next round's broadcast is received (and reassembled) while the
// current round still trains — and the handle is published after the
// FIRST frame, so training can start on the in-order state prefix while
// later chunks are still in flight (see fl.StreamedGlobal /
// Client.TrainStreamPrefixed).
//
// In synchronous mode the server never sends round N+1 before round N's
// reply, so the slot is never overwritten and the observable behavior —
// computation, bytes, errors — is exactly the lockstep loop's. The slot
// only pays off when the server runs ahead: buffered-async mode, where a
// broadcast the trainer has not picked up yet is superseded by the next
// one, so the party always trains on the newest generation that reached
// it and the reader never stalls the socket.
//
// A session therefore holds at most maxDownlinkBufs assembly buffers
// however fast generations arrive: the one being trained on, the one
// waiting in the slot, and the one the reader is filling (which takes the
// slot over as soon as its first frame validates).

// maxDownlinkBufs is the most state-length downlink assembly buffers one
// party session ever holds, and the capacity of its free list.
const maxDownlinkBufs = 3

// incomingGlobal is one round broadcast being (or already) received. It
// implements fl.StreamedGlobal: state fills front-to-back as chunks
// land, done is the valid watermark over the combined state+control
// stream, and a terminal err means the stream died mid-way. The reader
// goroutine advances it; the training goroutine waits on it and must
// Release it when finished (returning the assembly buffer to the
// session's free list).
type incomingGlobal struct {
	round  int
	budget int
	chunk  int
	// codec is the wire codec the broadcast arrived in; the reply streams
	// back in the same codec.
	codec byte

	mu   sync.Mutex
	cond *sync.Cond

	state   []float64
	control []float64
	buf     []float64 // backing for state+control, returned to free on Release
	free    chan []float64

	total    int
	done     int
	err      error
	released bool
}

// newIncomingGlobal wraps the assembly buffer for the broadcast whose
// first frame is m; buf is m.Total long.
func newIncomingGlobal(m GlobalChunkMsg, buf []float64, free chan []float64) *incomingGlobal {
	g := &incomingGlobal{
		round: m.Round, budget: m.Budget, chunk: m.Chunk, codec: m.Codec,
		buf: buf, free: free, total: m.Total,
		state: buf[:m.Total-m.CtrlLen],
	}
	if m.CtrlLen > 0 {
		g.control = buf[m.Total-m.CtrlLen:]
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// State implements fl.StreamedGlobal.
func (g *incomingGlobal) State() []float64 { return g.state }

// Control implements fl.StreamedGlobal.
func (g *incomingGlobal) Control() []float64 { return g.control }

// WaitState blocks until the first n state elements are valid (the
// stream fills state first, then control, so a state watermark is a
// stream watermark) or the stream fails.
func (g *incomingGlobal) WaitState(n int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.done < n && g.err == nil {
		g.cond.Wait()
	}
	return g.done >= n
}

// WaitAll blocks until the complete stream landed or failed.
func (g *incomingGlobal) WaitAll() bool { return g.WaitState(g.total) }

// Err returns the stream's terminal error.
func (g *incomingGlobal) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// advance publishes a new watermark (reader side).
func (g *incomingGlobal) advance(n int) {
	g.mu.Lock()
	g.done = n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// fail marks the stream dead (reader side); waiters unblock and report
// false.
func (g *incomingGlobal) fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Release waits until the reader is done with the buffer (stream
// complete or failed — the reader never touches it after either) and
// returns it to the free list. Idempotent.
func (g *incomingGlobal) Release() {
	if g.released {
		return
	}
	g.released = true
	g.mu.Lock()
	for g.done < g.total && g.err == nil {
		g.cond.Wait()
	}
	g.mu.Unlock()
	select {
	case g.free <- g.buf:
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
	max  int // bound for a declared stream length (state + param control)
	free chan []float64
	quit chan struct{}
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

func newDownlinkReader(conn Conn, max int, free chan []float64, clearDeadline func()) *downlinkReader {
	return &downlinkReader{
		conn: conn, max: max, free: free,
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
	if dl, ok := r.conn.(readDeadliner); ok {
		_ = dl.SetReadDeadline(time.Now())
	}
}

// push publishes an item unless the session is tearing down, and reports
// whether it did. It never blocks: a broadcast still waiting in the slot
// is superseded — by a newer generation or by the terminal event, which
// takes precedence over a stale broadcast — and released. The reader
// finishes one stream before it starts the next, so a superseded
// broadcast is always complete (or failed) and releasing it never waits.
// In sync mode the slot is empty whenever a broadcast arrives.
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
		old.g.Release()
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
// frame, publishing the handle right after that frame validates so
// training can begin on the state prefix. Frames on one conn must arrive
// in order without gaps or overlaps, with a constant header and codec and
// a correct last marker, and the declared length must fit the model's
// bound — checked before the assembly buffer is sized from it, so a
// hostile header cannot demand an arbitrary allocation. Each frame
// decodes straight into the buffer at its offset. Returns false when the
// reader must exit (terminal pushed or stopped).
func (r *downlinkReader) recvBroadcast(raw []byte) bool {
	first, p, err := parseGlobalChunk(raw)
	if err != nil {
		r.push(dlItem{err: err, got: true})
		return false
	}
	total, ctrl := first.Total, first.CtrlLen
	switch {
	case ctrl > total:
		err = fmt.Errorf("downlink stream of %d elements with control suffix %d", total, ctrl)
	case total > r.max:
		err = fmt.Errorf("downlink stream of %d elements exceeds this model's bound %d", total, r.max)
	}
	if err != nil {
		r.push(dlItem{err: err, got: true})
		return false
	}
	buf := r.takeBuf()
	if cap(buf) < total {
		buf = make([]float64, total)
	}
	ig := newIncomingGlobal(first, buf[:total], r.free)
	fail := func(err error) bool {
		ig.fail(err)
		r.push(dlItem{err: err, got: true})
		return false
	}
	for m, done := first, 0; ; {
		switch {
		case m.Round != first.Round || m.Total != total || m.CtrlLen != ctrl ||
			m.Budget != first.Budget || m.Chunk != first.Chunk || m.Codec != first.Codec:
			return fail(fmt.Errorf("downlink frame header changed mid-stream"))
		case m.Offset != done || done+p.count > total:
			return fail(fmt.Errorf("downlink frame [%d,%d) of %d, expected offset %d",
				m.Offset, m.Offset+p.count, total, done))
		case m.Last != (done+p.count == total):
			return fail(fmt.Errorf("downlink frame [%d,%d) of %d has inconsistent last marker",
				m.Offset, m.Offset+p.count, total))
		case p.count == 0 && !m.Last:
			// ChunkStream never emits an empty non-final frame; accepting
			// one would let a peer spin this loop forever without progress.
			return fail(fmt.Errorf("empty non-final downlink frame at offset %d", done))
		}
		if err := p.decodeInto(ig.buf[done : done+p.count]); err != nil {
			return fail(err)
		}
		if done == 0 && !r.push(dlItem{g: ig}) {
			return false
		}
		done += p.count
		ig.advance(done)
		if m.Last {
			return true
		}
		raw, err := r.conn.Recv()
		if err != nil {
			return fail(fmt.Errorf("downlink recv: %w", err))
		}
		if m, p, err = parseGlobalChunk(raw); err != nil {
			return fail(err)
		}
	}
}
