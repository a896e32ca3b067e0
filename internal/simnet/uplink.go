package simnet

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// This file is the server's receive side: one reader (Federation.read),
// driven by each conn's long-lived receiver (Federation.receive), turns
// chunk frames into complete, validated update streams, and the
// synchronous fold policy (syncFold) stages them for the round loop to
// fold in sampled order. The asynchronous policy in async.go consumes the
// same reader in arrival order.

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

// release returns a consumed update's stream buffer to the shared pool.
func (f *Federation) release(st stagedUpdate) {
	tensor.Shared.Put(st.buf)
	f.streamsOut.Add(-1)
}

// read receives one complete stream from src's conn — each frame decoded
// in place into one pooled stream-length buffer after its header passed
// the stream contract: no per-frame buffer, no copy, and server-side
// transient memory is one stream per receiver actually reading. Every
// frame must repeat the N/Tau of src's hello. round pins the round every
// frame must carry; a negative round adopts the first frame's (the async
// generation tag) and, while the run lasts, lifts RoundTimeout from the
// stream's first frame (see idle): an async party legitimately idles
// between generations for as long as the flush schedule takes, so only
// the gaps inside its stream are bounded, while a synchronous round
// bounds the first gap too (it covers the party's local training). On
// success the caller owns the update's pooled buffer and must release it;
// on failure (err set) it is already recycled.
func (f *Federation) read(src member, round int) stagedUpdate {
	total := f.total
	maxFrame := frameCap(f.Cfg.ChunkSize, total)
	buf := tensor.Shared.GetRaw(tensor.Float64, total)
	f.streamsOut.Add(1)
	data := buf.Data()
	fail := func(fatal bool, err error) stagedUpdate {
		tensor.Shared.Put(buf)
		f.streamsOut.Add(-1)
		return stagedUpdate{err: err, fatal: fatal}
	}
	var codec byte
	idle := round < 0
	for done := 0; ; {
		if f.RoundTimeout > 0 {
			if done == 0 && idle {
				f.idle(src.conn)
			} else {
				_ = src.conn.SetReadDeadline(time.Now().Add(f.RoundTimeout))
			}
		}
		raw, err := src.conn.Recv()
		if err != nil {
			// A frame over the receive limit is the party's violation;
			// anything else is transport loss.
			return fail(errors.Is(err, errFrameLimit), fmt.Errorf("simnet: recv from party %d: %w", src.id, err))
		}
		m, p, err := parseUpdateChunk(raw)
		if err != nil {
			return fail(true, fmt.Errorf("simnet: bad frame from party %d: %w", src.id, err))
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
		case m.Total != total:
			err = fmt.Errorf("declared stream length %d, expected %d", m.Total, total)
		case m.N != src.meta.N || m.Tau != src.meta.Tau:
			// Checked on every frame — this is why the trailer metadata
			// repeats — so a mismatched update is refused on its first
			// frame, not after its whole stream was staged.
			err = fmt.Errorf("frame meta (n=%d tau=%d) does not match expected (n=%d tau=%d)",
				m.N, m.Tau, src.meta.N, src.meta.Tau)
		case p.count > maxFrame:
			// The negotiated frame size is the flow-control contract: the
			// receive limit and the sender's pacing both assume it.
			err = fmt.Errorf("sent a %d-element frame, frame size is %d", p.count, maxFrame)
		default:
			err = checkFrame(m.Offset, p.count, done, total, m.Last)
		}
		if err == nil {
			err = p.decodeInto(data[done:end])
		}
		if err != nil {
			return fail(true, fmt.Errorf("simnet: party %d: %w", src.id, err))
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

// syncRound is one synchronous round as the connection loop sees it: the
// sample, one slot per sampled party, and the fold cursor. Guarded by the
// federation's mu.
type syncRound struct {
	index  map[int]int // party ID → slot
	slots  []slot
	cursor int // the next slot the round loop folds or drops
	// healBy closes the heal window: RejoinGrace after the broadcast was
	// published.
	healBy time.Time
}

// slot is one sampled party's progress through a round.
type slot struct {
	id    int
	conn  *CountingConn // the conn the broadcast was delivered on, nil until then
	stage slotStage
	st    stagedUpdate // the complete stream, while slotStaged
}

// slotStage is where a slot's reply stands.
type slotStage uint8

const (
	slotOpen    slotStage = iota // waiting for the broadcast or the stream
	slotReading                  // a receiver holds the turn
	slotStaged                   // st waits for the fold
	slotTaken                    // the round loop took st
	slotLost                     // the conn serving the slot died (and the party was evicted)
)

// slotOf returns party id's slot and its index, a nil slot when r is nil
// or id not sampled.
func (r *syncRound) slotOf(id int) (int, *slot) {
	if r != nil {
		if j, ok := r.index[id]; ok {
			return j, &r.slots[j]
		}
	}
	return -1, nil
}

// healUntil returns the end of s's heal window while it is open — its
// broadcast failed before it was ever delivered, no fresh sender has
// claimed it since, and RejoinGrace has not run out — and zero otherwise.
func (r *syncRound) healUntil(s slot) time.Time {
	if s.stage == slotLost && s.conn == nil && time.Now().Before(r.healBy) {
		return r.healBy
	}
	return time.Time{}
}

// syncFold is the synchronous fold policy — the fold gate: a receiver's
// turn comes when the round samples its party, the broadcast went out on
// its conn, and the party's slot j is within the staging window (j <
// cursor + foldAhead), no matter how out-of-order the arrivals are.
type syncFold struct{ f *Federation }

func (p syncFold) turn(m member) (int, bool) {
	f := p.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.serving(m) {
		j, s := f.round.slotOf(m.id)
		if s != nil && s.conn == m.conn && s.stage == slotOpen && j < f.round.cursor+foldAhead {
			s.stage = slotReading
			return f.gen, true
		}
		f.cond.Wait()
	}
	return 0, false
}

// take stages a complete stream in the party's slot, or marks the slot
// lost — the receiver already evicted the party. A stream whose round is
// over (aborted) is recycled.
func (p syncFold) take(m member, st stagedUpdate) bool {
	p.f.update(func() {
		if _, s := p.f.round.slotOf(m.id); s != nil && s.stage == slotReading && s.conn == m.conn {
			s.stage, s.st = slotLost, st
			if st.err == nil {
				s.stage = slotStaged
			}
		} else if st.err == nil {
			p.f.release(st)
		}
	})
	return st.err == nil
}

// beginRound publishes the round's broadcast bf, addressed to the
// sample, and opens its slots.
func (f *Federation) beginRound(sampled []int, bf *globalFrames) *syncRound {
	r := &syncRound{index: make(map[int]int, len(sampled)), slots: make([]slot, len(sampled)),
		healBy: time.Now().Add(f.RejoinGrace)}
	for j, id := range sampled {
		r.index[id], r.slots[j].id = j, id
		if !f.table.get(id).alive() {
			r.slots[j].stage = slotLost // no sender will report for it
		}
	}
	f.publish(bf, r)
	return r
}

// endRound retires round r and unpublishes its broadcast, dropping the
// publication's reference to the frame cache. A round that ran to its end
// resolved every slot through the goroutine that settled it — a sender's
// delivery or loss, a receiver's stream or loss, each reported after its
// eviction, and a sender's report drops its own reference — so no sender
// still reads the engine's global, the cache is retired to the free list
// the next round is built from, and every eviction the round caused has been reported
// before the next round samples. Only an aborted round (a fold
// bookkeeping error, which ends the run) leaves staged streams to
// recycle; its readers still mid-stream recycle theirs in take, and its
// senders still mid-send hold the cache until they report.
func (f *Federation) endRound(r *syncRound) {
	f.update(func() {
		for j := range r.slots {
			if s := &r.slots[j]; s.stage == slotStaged {
				f.release(s.st)
				s.stage = slotTaken
			}
		}
		f.drop(f.bf)
		f.bf, f.round = nil, nil
	})
}

// awaitSlot blocks until slot j resolves for the round loop: the party's
// complete stream, staged by its receiver, or a loss to drop. A slot whose
// broadcast failed waits out the heal window: the party's rejoin is
// installed the moment it is queued, the fresh conn's sender claims the
// round's broadcast because it is still owed to the party — which takes
// the slot out of the heal window, so the slot then waits for that
// sender's report however long the delivery takes — and the fresh
// receiver takes the slot. A healed party never saw a complete broadcast
// before, so it trains exactly once, and the aggregation is bitwise what
// it would have been without the fault. Only a failed broadcast is
// healed; a party lost after it (mid-training or mid-reply) is dropped,
// and its rejoin waits for the next round.
func (f *Federation) awaitSlot(r *syncRound, j int) stagedUpdate {
	for {
		var heal []int
		f.mu.Lock()
		for _, s := range r.slots[j:] {
			if !r.healUntil(s).IsZero() {
				heal = append(heal, s.id)
			}
		}
		s := &r.slots[j]
		st, stage, until := s.st, s.stage, r.healUntil(*s)
		if stage == slotStaged {
			s.stage, s.st = slotTaken, stagedUpdate{}
		}
		f.mu.Unlock()
		switch {
		case stage == slotStaged:
			return st
		case stage == slotLost && until.IsZero():
			return stagedUpdate{err: fmt.Errorf("simnet: party %d left the round", s.id)}
		case len(heal) > 0:
			f.installQueuedRejoins(func(id int) bool { return slices.Contains(heal, id) })
		}
		f.wait(until)
	}
}
