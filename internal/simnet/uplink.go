package simnet

import (
	"fmt"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// This file is the server's receive side: one updateReader per party conn
// turns chunk frames into complete, validated update streams, and the
// synchronous scheduler (recvRound) folds them in sampled order. The
// asynchronous scheduler in async.go consumes the same reader in arrival
// order.

// frameCap resolves the configured chunk size against a stream of total
// elements: the largest payload, in elements, one legitimate frame may
// carry. A zero chunk size asks for one frame per vector, which the
// stream length bounds.
func frameCap(chunk, total int) int {
	if chunk == 0 || chunk > total {
		return total
	}
	return chunk
}

// recvLimitFor returns the per-frame receive bound for frames of at most
// elems raw float64 elements (quantized payloads are smaller), plus header
// slack.
func recvLimitFor(elems int) uint32 {
	const slack = 64
	if sz := uint64(elems)*8 + slack; sz < maxMsg {
		return uint32(sz)
	}
	return maxMsg
}

// checkFrame is the frame contract both stream directions share, for a
// frame of count elements at offset in a stream of total elements of
// which done have arrived: frames come in order without gaps or overlaps,
// stay inside the stream, carry the last marker exactly when they end it,
// and are empty only as the last frame — an honest sender never frames
// zero elements mid-stream, and accepting one would let a peer spin its
// reader without progress. Checks that belong to one direction stay in
// that direction's reader.
func checkFrame(offset, count, done, total int, last bool) error {
	end := offset + count
	switch {
	case offset != done:
		return fmt.Errorf("frame at offset %d, expected offset %d", offset, done)
	case end > total:
		return fmt.Errorf("frame [%d,%d) overflows stream length %d", offset, end, total)
	case last != (end == total):
		return fmt.Errorf("frame [%d,%d) of %d has inconsistent last marker", offset, end, total)
	case count == 0 && !last:
		return fmt.Errorf("empty non-final frame at offset %d", offset)
	}
	return nil
}

// stagedUpdate is what an updateReader makes of one party's stream: the
// complete, validated update, or the classified failure. On success buf
// is a pooled tensor holding exactly the stream's values; whoever
// consumes the update returns it to the shared pool (Federation.release).
type stagedUpdate struct {
	// round is the round (sync) or generation (async) every frame of the
	// stream carried.
	round   int
	buf     *tensor.Tensor
	trailer fl.Update
	// err is why the stream failed; fatal classifies it for the membership
	// machine: true marks the party's own framing at fault (a protocol
	// violation — permanent eviction), false is transport loss (conn death
	// or a RoundTimeout expiry — the party may rejoin).
	err   error
	fatal bool
}

// update views the staged stream as the whole update it carries: the
// trailer's metadata over the state-length delta and, past it, SCAFFOLD's
// control delta. The views alias the pooled buffer, so the update is
// valid until release.
func (st stagedUpdate) update(stateLen int) fl.Update {
	data := st.buf.Data()
	u := st.trailer
	u.Delta = data[:stateLen]
	if stateLen < len(data) {
		u.DeltaC = data[stateLen:]
	}
	return u
}

// updateReader reads one party's update streams off its conn. Every
// frame is decoded in place into one pooled stream-length buffer — no
// per-frame buffer, no copy — after its header passed the stream
// contract, so server-side transient memory is one stream per reader that
// is actually reading.
type updateReader struct {
	f        *Federation
	id       int
	conn     *CountingConn
	meta     fl.UpdateMeta // the N/Tau every frame must repeat
	total    int           // stream length in elements
	maxFrame int           // largest legitimate frame payload in elements
	// idleStart lifts RoundTimeout from a stream's first frame: an async
	// party legitimately idles between generations for as long as the
	// flush schedule takes, so only the gaps inside a stream are bounded.
	// A synchronous round bounds the first gap too (it must cover the
	// party's local training).
	idleStart bool
}

func (f *Federation) newUpdateReader(id int, conn *CountingConn, meta fl.UpdateMeta, total int) *updateReader {
	return &updateReader{
		f: f, id: id, conn: conn, meta: meta, total: total,
		maxFrame: frameCap(f.Cfg.ChunkSize, total),
	}
}

// release returns a consumed update's stream buffer to the shared pool.
func (f *Federation) release(st stagedUpdate) {
	tensor.Shared.Put(st.buf)
	f.streamsOut.Add(-1)
}

// read receives one complete stream. round pins the round every frame
// must carry; a negative round adopts the first frame's (the async
// generation tag). On success the caller owns the update's pooled buffer
// and must release it; on failure (err set) it is already recycled.
func (r *updateReader) read(round int) stagedUpdate {
	buf := tensor.Shared.GetRaw(tensor.Float64, r.total)
	r.f.streamsOut.Add(1)
	data := buf.Data()
	fail := func(fatal bool, err error) stagedUpdate {
		tensor.Shared.Put(buf)
		r.f.streamsOut.Add(-1)
		return stagedUpdate{err: err, fatal: fatal}
	}
	var codec byte
	for done := 0; ; {
		if timeout := r.f.RoundTimeout; timeout > 0 {
			var deadline time.Time
			if done > 0 || !r.idleStart {
				deadline = time.Now().Add(timeout)
			}
			_ = r.conn.SetReadDeadline(deadline)
		}
		raw, err := r.conn.Recv()
		if err != nil {
			return fail(false, fmt.Errorf("simnet: recv from party %d: %w", r.id, err))
		}
		m, p, err := parseUpdateChunk(raw)
		if err != nil {
			return fail(true, fmt.Errorf("simnet: bad frame from party %d: %w", r.id, err))
		}
		if done == 0 {
			codec = m.Codec
			if round < 0 {
				round = m.Round
			}
		}
		end := m.Offset + p.count
		switch {
		case m.Codec != codec:
			// The wire codec is a stream-level property: a party that
			// switches encodings mid-stream is framing garbage, exactly like
			// a mid-stream header change.
			err = fmt.Errorf("switched wire codec %s -> %s mid-stream", codecName(codec), codecName(m.Codec))
		case m.Round != round:
			err = fmt.Errorf("sent a frame for round %d in a stream for round %d", m.Round, round)
		case m.Total != r.total:
			err = fmt.Errorf("declared stream length %d, expected %d", m.Total, r.total)
		case m.N != r.meta.N || m.Tau != r.meta.Tau:
			// Checked on every frame — this is why the trailer metadata
			// repeats — so a mismatched update is refused on its first
			// frame, not after its whole stream was staged.
			err = fmt.Errorf("frame meta (n=%d tau=%d) does not match expected (n=%d tau=%d)",
				m.N, m.Tau, r.meta.N, r.meta.Tau)
		case p.count > r.maxFrame:
			// The negotiated frame size is the flow-control contract: the
			// receive limit and the sender's pacing both assume it.
			err = fmt.Errorf("sent a %d-element frame, frame size is %d", p.count, r.maxFrame)
		default:
			err = checkFrame(m.Offset, p.count, done, r.total, m.Last)
		}
		if err == nil {
			err = p.decodeInto(data[done:end])
		}
		if err != nil {
			return fail(true, fmt.Errorf("simnet: party %d: %w", r.id, err))
		}
		if done = end; m.Last {
			return stagedUpdate{
				round: round, buf: buf,
				trailer: fl.Update{N: m.N, Tau: m.Tau, TrainLoss: m.TrainLoss},
			}
		}
	}
}

// foldAhead is how many complete reply streams the synchronous fold may
// stage past its in-order cursor. The fold order — and so the result — is
// the same, bit for bit, at every value; what 4 buys is that parties
// within the horizon drain their streams concurrently instead of serially
// behind a straggler, at O(foldAhead x stream) transient pool memory, the
// whole of the server's transient receive memory.
const foldAhead = 4

// foldGate bounds how far past the fold cursor the synchronous readers
// may run: reader j may receive its stream only once j < cursor +
// foldAhead, no matter how out-of-order the arrivals are. advance moves
// the cursor one slot (folded, dropped, or dead — every slot counts);
// abort releases every waiter when the round dies.
type foldGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cursor  int
	aborted bool
}

func newFoldGate() *foldGate {
	g := &foldGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// waitTurn blocks until slot j is within the staging window (always
// immediate for the cursor slot itself) and reports false when the round
// aborted instead.
func (g *foldGate) waitTurn(j int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for j >= g.cursor+foldAhead && !g.aborted {
		g.cond.Wait()
	}
	return !g.aborted
}

func (g *foldGate) advance() {
	g.mu.Lock()
	g.cursor++
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *foldGate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

var errRoundAborted = fmt.Errorf("simnet: round aborted")

// recvRound is the synchronous scheduler: it receives the sampled
// parties' update streams concurrently — each on its own updateReader,
// admitted by the fold gate — and folds the complete streams in sampled
// order, each straight from its reader's pooled buffer. Every party's
// stream is validated and assembled the moment its frames arrive (subject
// to the fold-ahead window), so one slow party delays the fold by only
// its own stream; the fold itself stays in sampled order over whole
// streams, so the aggregation's floating-point sequence is deterministic
// for a given sample whatever the wire order was. A party whose stream
// arrives malformed (or whose conn dies mid-stream) is evicted and
// dropped from the round, not fatal to it. total is the stream length:
// stateLen, plus SCAFFOLD's control suffix.
func (f *Federation) recvRound(round int, sampled []int, stateLen, total int, sink *fl.RoundSink) error {
	staged := make([]chan stagedUpdate, len(sampled))
	gate := newFoldGate()
	for j, id := range sampled {
		m := f.table.get(id)
		if !m.alive() {
			continue // no reader; the fold drops this slot upfront
		}
		staged[j] = make(chan stagedUpdate, 1)
		r := f.newUpdateReader(id, m.conn, sink.Meta(j), total)
		go func(j int) {
			if !gate.waitTurn(j) {
				staged[j] <- stagedUpdate{err: errRoundAborted}
				return
			}
			staged[j] <- r.read(round)
		}(j)
	}
	// fatal aborts the round: release every reader still waiting on the
	// gate and recycle whatever the in-flight ones deliver, so no pooled
	// buffer outlives the round. (A reader mid-Recv ends when serve's
	// teardown closes its conn.)
	fatal := func(from int, err error) error {
		gate.abort()
		for _, ch := range staged[from:] {
			if ch == nil {
				continue
			}
			go func() {
				if st := <-ch; st.err == nil {
					f.release(st)
				}
			}()
		}
		return err
	}
	for j, id := range sampled {
		var st stagedUpdate
		if staged[j] == nil {
			st.err = fmt.Errorf("simnet: party %d left the federation in an earlier round", id)
		} else if st = <-staged[j]; st.err != nil {
			// The reader classified the failure; eviction stays on the round
			// loop goroutine.
			f.evict(id, nil, st.fatal, st.err)
		} else {
			u := st.update(stateLen)
			err := sink.Fold(j, u)
			if err == nil {
				// Only after the fold accepted the update, so the tracked c_i
				// follows exactly the uploads the aggregation counted.
				f.table.addControl(id, u.DeltaC)
			}
			f.release(st)
			if st.err = err; err != nil {
				// The aggregation refused a well-framed update: the party's
				// fault, permanently.
				f.evict(id, nil, true, err)
			}
		}
		if st.err != nil {
			if err := sink.Drop(j, st.err); err != nil {
				return fatal(j+1, err)
			}
		}
		gate.advance()
	}
	return nil
}
