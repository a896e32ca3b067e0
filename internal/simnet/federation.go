package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// Federation runs the federated protocol over explicit connections: the
// server goroutine owns aggregation, each party goroutine owns its local
// dataset and model, and all model movement happens through serialized
// messages on Conns. The round machinery — sampling, streaming
// aggregation, metrics, evaluation cadence — is the shared fl.Engine; this
// type is its message-passing Transport under both schedulers. Who is in
// the federation, on which conn, is the table's business (table.go); how a
// hello gets a party in there is admission's (admission.go).
//
// Every seated conn is served by one connection loop, whichever scheduler
// runs: one long-lived sender (send) and one long-lived receiver
// (receive), started when the run boots or a rejoin is installed and
// ending when the conn is replaced, evicted or shut down. The Federation
// is the hub they share:
//
//   - it publishes each generation's encode-once globalFrames with the
//     parties it is addressed to — the round's sample under sync; under
//     async, every party that has answered each generation its conn was
//     shipped (a party pulls: a slow one skips the generations minted
//     while it trained instead of queueing them) — and a sender ships the
//     newest generation that addresses its party;
//   - it recycles the frame caches: a cache is held while it is
//     published and by each sender shipping it, and the last holder to
//     let go retires it to the free list, whose caches the next
//     generations are encoded into — an async generation's snapshot too
//     (see frameCache) — so a steady run, under either scheduler,
//     allocates no broadcast buffers;
//   - a receiver asks the run's foldPolicy for its turn, reads one stream
//     and hands it to the policy: the sync fold gate (uplink.go) or
//     arrival order into the async coordinator (async.go);
//   - the scheduler goroutine — the sync round loop or the async
//     membership loop — has one wait (see wait), woken by the events it
//     cares about: a queued rejoin, an eviction, a delivered or lost
//     broadcast, a staged or folded update. Both schedulers wait for
//     quorum on it under one rule (see quorum).
type Federation struct {
	Cfg  fl.Config
	Spec nn.ModelSpec
	Test *data.Dataset
	ServerOptions
	table *partyTable

	prevBytes int64 // byte watermark for per-round accounting
	// streamsOut counts pooled update-stream buffers currently held by
	// receivers, staged for the fold or folding — at most foldAhead in a
	// synchronous round, and zero between rounds.
	streamsOut atomic.Int64

	// The connection loop. The policy (nil until the run boots) and the
	// update stream shape are set before the first loop starts.
	policy          foldPolicy
	stateLen, total int
	// mu guards the fields below it; cond wakes the senders and receivers
	// waiting on them; wake holds the scheduler's pending wake-up. Lock
	// order: mu before the table's lock.
	mu   sync.Mutex
	cond *sync.Cond
	wake chan struct{}
	// The published generation: seq counts publications, so a sender
	// knows what it has shipped; gen is its number — the round, under
	// sync — and orders async generations; bf is nil when none is live
	// (between sync rounds). round, under sync, holds the slots of the
	// sample bf addresses. done marks the run over: set by stop, or
	// earlier by the async fold that completes the run.
	seq, gen int
	bf       *globalFrames
	round    *syncRound
	done     bool
	// free lists the retired frame caches — no longer published, shipped
	// by no sender — whose buffers the next generations are built in. It
	// holds at most as many caches as were ever in flight at once: the
	// published one plus one per served conn's sender.
	free []*globalFrames
	// answered counts, per served conn under async, the complete streams
	// its receiver handed the policy: folded, fairness-dropped or
	// deduplicated alike. A conn's sender ships it a generation only while
	// the count has caught up with what it shipped (see claim).
	answered map[*CountingConn]int

	// loops counts the running senders and receivers.
	loops sync.WaitGroup

	// short is the quorum shortfall the scheduler is waiting out, nil at
	// quorum. It begins, at shortSince, with the first attempt that came
	// up short — too few live parties, or a sync round that lost every
	// update — and ends when a sync round completes or the async
	// membership loop finds quorum. Scheduler goroutine only.
	short      *fl.QuorumError
	shortSince time.Time
}

// newFederation builds the server side of a federation of numParties: the
// config normalized, the table sized and — when resuming — seeded with the
// snapshot's round stamp and per-party resync controls, which admission
// needs before the first rejoin hello can arrive. A wrong-size snapshot is
// refused here, before any party is admitted into a federation that cannot
// run.
func newFederation(cfg fl.Config, spec nn.ModelSpec, test *data.Dataset, numParties int, opts ServerOptions) (*Federation, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if numParties <= 0 {
		return nil, fmt.Errorf("simnet: no parties")
	}
	if opts.Resume != nil && opts.Resume.NumParties != numParties {
		return nil, fmt.Errorf("simnet: snapshot is for %d parties, AcceptAndRun called with %d", opts.Resume.NumParties, numParties)
	}
	f := &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, ServerOptions: opts,
		table: newPartyTable(numParties, opts.Resume), wake: make(chan struct{}, 1)}
	f.cond = sync.NewCond(&f.mu)
	return f, nil
}

// evict removes a party from the federation: its conn is closed (ending
// any lingering party-side send) and later rounds drop it without
// contact. permanent=true marks a protocol violation — the party lands in
// partyEvicted and a rejoin is refused; permanent=false marks transport
// loss — partySuspect, restored by a rejoin hello. A conn's sender and
// receiver pass the conn they serve, so the first of the two to notice
// wins, the second is a duplicate, and news about an already-replaced
// conn is stale; a nil c means whatever conn the party is on. A move is
// reported — Evicted or Suspected, with cause — before the waiters wake.
// Once the run is over nothing moves: conns may already be torn down, and
// late failures are not news.
func (f *Federation) evict(id int, c *CountingConn, permanent bool, cause error) {
	f.mu.Lock()
	over := f.done
	f.mu.Unlock()
	if over {
		return
	}
	ord := f.table.evict(id, c, permanent)
	if ord == 0 {
		return
	}
	kind := Suspected
	if permanent {
		kind = Evicted
	}
	f.emit(kind, id, ord, 0, cause)
	f.changed()
}

// SyncMembership implements fl.Membership: called at the top of every
// round attempt, from the round loop, it waits for quorum (see quorum)
// and returns the live mask the sampler draws from, with the round's
// shortfall so far. Mid-round, the round loop installs only the rejoins
// that heal a failed broadcast (see awaitSlot); every other rejoin waits
// for this boundary.
func (f *Federation) SyncMembership(round int) ([]bool, *fl.QuorumError, error) {
	alive, until, err := f.quorum(round, true)
	for ; err == nil && !until.IsZero(); alive, until, err = f.quorum(round, false) {
		f.wait(until)
	}
	if err != nil {
		return nil, nil, err
	}
	live := make([]bool, len(f.table.members))
	for _, m := range alive {
		live[m.id] = true
	}
	return live, f.short, nil
}

// quorum is the one quorum rule, under both schedulers, run by the
// scheduler goroutine at each sync round attempt and async wake-up: it
// installs the queued rejoins and returns the live parties. At least
// Cfg.MinParties of them (1 or more, see fl.Config) is quorum. Short of
// it, quorum books the shortfall — attempt marks a new round attempt
// rather than a wake-up within one — and returns until, the end of the
// shortfall's budget, for the scheduler to wait for on f.wait, which a
// queued rejoin wakes, before it asks again. Once the budget is spent it
// returns the *fl.QuorumError instead.
func (f *Federation) quorum(gen int, attempt bool) (live []member, until time.Time, err error) {
	f.installQueuedRejoins(nil)
	if live = f.table.alive(); len(live) >= f.Cfg.MinParties {
		return live, time.Time{}, nil
	}
	until, err = f.shortfall(gen, len(live), attempt)
	return live, until, err
}

// shortfall books that generation gen came up short with live parties:
// the first booking starts the shortfall and its Cfg.QuorumWait budget,
// and each attempt (the first included) counts one. It returns the end of
// the budget, or the *fl.QuorumError once the budget is spent.
func (f *Federation) shortfall(gen, live int, attempt bool) (time.Time, error) {
	now := time.Now()
	if f.short == nil {
		f.short, f.shortSince, attempt = &fl.QuorumError{Round: gen, Min: f.Cfg.MinParties}, now, true
	}
	if attempt {
		f.short.Attempts++
	}
	f.short.Live = live
	if until := f.shortSince.Add(f.Cfg.QuorumWait); now.Before(until) {
		return until, nil
	}
	return time.Time{}, f.short
}

// installQueuedRejoins drains the queued rejoins that keep accepts (nil:
// all of them) into the federation (see seat), serves each restored conn
// and returns the members restored. A fresh conn that died before its
// handshake completed is dropped; the party stays suspect and may dial
// again. Scheduler goroutine only.
func (f *Federation) installQueuedRejoins(keep func(id int) bool) (restored []member) {
	for _, m := range f.table.drainRejoins(keep) {
		if err := f.seat(&m, true, false); err != nil {
			_ = m.conn.Close()
			continue
		}
		restored = append(restored, m)
	}
	f.serve(restored...)
	return restored
}

// PartyMeta implements fl.Transport.
func (f *Federation) PartyMeta(id int) fl.UpdateMeta { return f.table.get(id).meta }

// TrainRound implements fl.Transport: it publishes the round's global
// state as a generation addressed to the sampled parties — each conn's
// sender ships it as GlobalChunkMsg frames — and folds the sampled
// parties' update streams in sampled order as their receivers stage them,
// so the server never buffers the whole round. Cfg.ChunkSize only sets
// the frame size (0 is one frame per vector): eviction, rejoin and
// drop-and-renormalise apply at every size.
func (f *Federation) TrainRound(round int, sampled []int, global, control []float64, sink *fl.RoundSink) error {
	bf := f.frameCache(func(_, _ []float64) (int, []float64, []float64, bool) {
		return round, global, control, false
	})
	r := f.beginRound(sampled, bf)
	defer f.endRound(r)
	folded := 0
	for j, id := range sampled {
		st := f.awaitSlot(r, j)
		if st.err == nil {
			u := st.update(f.stateLen)
			if st.err = sink.Fold(j, u); st.err == nil {
				// Only after the fold accepted the update, so the tracked c_i
				// follows exactly the uploads the aggregation counted.
				f.table.addControl(id, u.DeltaC)
				folded++
			} else {
				// The aggregation refused a well-framed update: the party's
				// fault, permanently.
				f.evict(id, nil, true, st.err)
			}
			f.release(st)
		}
		if st.err != nil {
			if err := sink.Drop(j, st.err); err != nil {
				return err
			}
		}
		// Every slot counts — folded or dropped — and opens the staging
		// window one slot further.
		f.update(func() { r.cursor++ })
	}
	f.table.setRound(round + 1)
	if folded == 0 {
		// Every update was lost: the engine attempts the round again, on
		// the same quorum budget.
		_, err := f.shortfall(round, 0, true)
		return err
	}
	f.short = nil // the round completes
	return nil
}

// foldPolicy is what a receiver serves: turn blocks until the conn of m
// may read its next stream and returns the round every frame must carry
// (negative: adopt the first frame's), or false when the receiver is to
// exit; take consumes the stream read — or the failure, after the
// receiver evicted the party — and reports whether to read on.
type foldPolicy interface {
	turn(m member) (round int, ok bool)
	take(m member, st stagedUpdate) bool
}

// update runs fn under mu, then wakes every waiter: the senders and
// receivers on cond, the scheduler on wake. Callers must not hold mu or
// the table's lock.
func (f *Federation) update(fn func()) {
	f.mu.Lock()
	fn()
	f.cond.Broadcast()
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// changed wakes every waiter after shared state outside the loop moved:
// membership, a queued rejoin, a fold.
func (f *Federation) changed() { f.update(func() {}) }

// wait is the scheduler's one wait: it returns when the loop is woken or,
// for a non-zero deadline, once the deadline passes.
func (f *Federation) wait(deadline time.Time) {
	var expired <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-f.wake:
	case <-expired:
	}
}

// serving reports whether m's conn is still the party's, in the
// federation, and the run is not over. Called with mu held.
func (f *Federation) serving(m member) bool {
	cur := f.table.get(m.id)
	return !f.done && cur.conn == m.conn && cur.alive()
}

// serve starts each member's sender and receiver — once the run has
// booted under its policy, when every seated conn is served; later conns
// join as their rejoins are installed — and wakes the loops of the conns
// they replaced. The conn's replies are bounded to the largest legitimate
// frame, so a hostile length prefix is refused before the frame is read
// into memory: the memory contract holds even against
// admitted-but-malicious parties.
func (f *Federation) serve(ms ...member) {
	for _, m := range ms {
		if f.policy == nil {
			break
		}
		m.conn.SetRecvLimit(recvLimitFor(frameCap(f.Cfg.ChunkSize, f.total)))
		f.loops.Add(2)
		go f.send(m)
		go f.receive(m)
	}
	if len(ms) > 0 {
		f.changed()
	}
}

// stop is the run's one teardown: it ends every conn's loop and waits for
// them. Each live conn's sender, its one writer, says goodbye on its way
// out. Receivers are not closed out from under their parties: one still
// reading drains its conn until the party, having read the ShutdownMsg
// past any reply it was still uploading, closes its end — or, with
// RoundTimeout set, until the conn has been silent that long, so a party
// that keeps its end open after the goodbye cannot hold the teardown (see
// idle). The caller's partyTable.shutdown closes what is left.
func (f *Federation) stop() {
	f.update(func() {
		f.done = true
		if f.RoundTimeout > 0 {
			for _, m := range f.table.all() {
				if m.conn != nil {
					_ = m.conn.SetReadDeadline(time.Now().Add(f.RoundTimeout))
				}
			}
		}
	})
	f.loops.Wait()
}

// idle sets c's read deadline for the first frame of an async stream:
// none while the run lasts — a party idles between generations as long as
// the flush schedule takes — and RoundTimeout once it is over. Deciding
// under mu orders it with stop, which bounds every conn's read as it ends
// the run, so a receiver cannot lift the bound stop just set.
func (f *Federation) idle(c *CountingConn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var deadline time.Time
	if f.done {
		deadline = time.Now().Add(f.RoundTimeout)
	}
	_ = c.SetReadDeadline(deadline)
}

// publish installs bf as the newest generation, the one its broadcast
// names, unless a newer one is already live (two async receivers may
// flush back-to-back and race here — generation order wins, not arrival
// order), releasing the cache it replaces or, when superseded, bf
// itself. r is the sync round bf belongs to, nil under async.
func (f *Federation) publish(bf *globalFrames, r *syncRound) {
	gen := bf.gm.Round
	f.update(func() {
		bf.refs++ // the publication's
		if f.bf != nil && gen <= f.gen {
			f.drop(bf)
			return
		}
		if f.bf != nil {
			f.drop(f.bf)
		}
		f.seq++
		f.gen, f.bf, f.round = gen, bf, r
	})
}

// frameCache returns the frame cache for the next generation's
// broadcast, built in a retired cache's buffers when the free list has
// one: the broadcast is encoded into its per-codec arenas and frame
// slices, and fill copies the generation's vectors into its state and
// control (nil off a new cache) — an async snapshot, refilled in place
// (fl.AsyncCoordinator.CopyGlobal) — or returns vectors of its own, as a
// sync round lends the engine's global. fill also names the generation;
// when it reports the run done there is none to broadcast, and
// frameCache retires the cache again and returns nil.
func (f *Federation) frameCache(fill func(state, control []float64) (gen int, st, ctl []float64, done bool)) *globalFrames {
	old := &globalFrames{}
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		old, f.free = f.free[n-1], f.free[:n-1]
	}
	f.mu.Unlock()
	gen, state, control, done := fill(old.gm.State, old.gm.Control)
	bf := newGlobalFrames(gen, state, control, f.Cfg.ChunkSize)
	for i := range bf.sets {
		bf.sets[i].arena, bf.sets[i].fr = old.sets[i].arena[:0], old.sets[i].fr[:0]
	}
	if done {
		f.mu.Lock()
		f.free = append(f.free, bf)
		f.mu.Unlock()
		return nil
	}
	return bf
}

// drop releases one reference to bf; the last one retires it to the free
// list with its buffers — under async, the snapshot it broadcast among
// them, which only the cache still holds. Called with mu held.
func (f *Federation) drop(bf *globalFrames) {
	if bf.refs--; bf.refs == 0 {
		f.free = append(f.free, bf)
	}
}

// claim blocks until a generation newer than sent addresses m's party
// and returns it, holding a reference to its cache for the sender (send
// drops it once the ship is over); false means the sender is to exit. A
// sync round addresses the sampled parties its broadcast has not reached
// yet — a slot still open, or lost and in its heal window — and the
// claim takes the slot out of the heal window, so only this sender's
// report resolves it. An async generation addresses a party once it has
// answered every generation its conn was shipped, so a rejoined conn,
// which starts with nothing shipped, is shipped the newest generation at
// once.
func (f *Federation) claim(m member, sent, shipped int) (int, *globalFrames, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.serving(m) {
		var s *slot
		due := f.answered[m.conn] >= shipped
		if f.round != nil {
			_, s = f.round.slotOf(m.id)
			due = s != nil && s.conn == nil && (s.stage == slotOpen || !f.round.healUntil(*s).IsZero())
		}
		if f.bf != nil && f.seq > sent && due {
			if s != nil {
				s.stage = slotOpen
			}
			f.bf.refs++
			return f.seq, f.bf, true
		}
		f.cond.Wait()
	}
	return 0, nil, false
}

// send is a conn's one sender: it ships every generation addressed to
// its party (see claim), counting them, as the shared frames for the
// party's negotiated wire codec (fixed for the conn's lifetime; a rejoin
// renegotiates on a fresh conn with a fresh sender), until the conn is
// replaced, evicted or shut down. A failure is transport loss toward that
// party — or an encode failure (a non-finite value the quantizer refused)
// poisoning this codec's frame set for the generation; either way the
// party is cut loose and may rejoin. Under sync the outcome lands in the
// party's slot, after the eviction: delivery opens the receiver's turn, a
// loss before any delivery opens the heal window. The report goes only to
// the generation that was shipped: once that is over it is dropped, and
// with it the sender's reference to the cache.
func (f *Federation) send(m member) {
	defer f.loops.Done()
	for sent, shipped := 0, 0; ; shipped++ {
		seq, bf, ok := f.claim(m, sent, shipped)
		if !ok {
			// The run is over — or the conn is gone, already closed, and
			// the goodbye just fails.
			goodbye, _ := Marshal(ShutdownMsg{})
			_ = m.conn.Send(goodbye)
			return
		}
		f.emit(Shipped, m.id, m.ord, bf.gm.Round, nil)
		frames, err := bf.frames(m.codec)
		for i := 0; err == nil && i < len(frames); i++ {
			err = m.conn.Send(frames[i])
		}
		if err != nil {
			f.evict(m.id, m.conn, false, fmt.Errorf("simnet: send to party %d: %w", m.id, err))
		}
		f.update(func() {
			f.drop(bf)
			switch _, s := f.round.slotOf(m.id); {
			case s == nil || seq != f.seq:
				// Async, or the shipped round is over: nothing to report.
			case err != nil:
				s.stage = slotLost
			default:
				s.conn, s.stage = m.conn, slotOpen
			}
		})
		if err != nil {
			return
		}
		sent = seq
	}
}

// receive is a conn's one receiver: it reads one update stream per turn
// its policy grants and hands it over, until the policy ends it. A failed
// stream evicts the party from here, the goroutine that noticed, and
// closing the conn also frees its sender if that is still blocked toward
// a peer that stopped reading.
func (f *Federation) receive(m member) {
	defer f.loops.Done()
	for {
		round, ok := f.policy.turn(m)
		if !ok {
			return
		}
		st := f.read(m, round)
		if st.err != nil {
			_ = m.conn.Close()
			f.evict(m.id, m.conn, st.fatal, st.err)
		} else {
			f.emit(Answered, m.id, m.ord, st.round, nil)
		}
		if !f.policy.take(m, st) {
			return
		}
	}
}

// globalFrames is a round broadcast's encode-once frame cache: the first
// sender for each negotiated wire codec marshals that codec's frame set
// exactly once, and every later sender of the same codec — each conn's
// long-lived sender, a healed party's fresh one included — ships the
// same immutable byte slices. Server encode
// CPU stays flat in K — a round broadcast costs one encode pass per
// distinct codec in the federation, no matter how many parties, over
// pipes or TCP, receive it. Safe for concurrent use; the slices are
// never mutated while anyone holds the cache (every conn writes them out
// as they are): only once the federation's last reference is gone do
// they pass, with an async generation's snapshot, through the free list
// to a later generation's cache (see Federation.frameCache).
type globalFrames struct {
	gm   GlobalMsg
	sets [4]codecFrames // indexed by wire codec
	// refs counts the cache's holders, under Federation.mu: one while it
	// is published, plus one per sender that claimed it and has not yet
	// reported.
	refs int
}

// newGlobalFrames wraps one round's (or async generation's) broadcast in
// a frame cache with no buffers of its own yet. state and control must
// not be mutated while the cache is in use — the frame sets encode
// lazily, per codec, on first use — so an async generation's are a
// snapshot the cache owns, refilled only once it is retired (see
// Federation.frameCache), and a sync round's global outlives every sender
// of it (see endRound).
func newGlobalFrames(round int, state, control []float64, chunk int) *globalFrames {
	return &globalFrames{gm: GlobalMsg{Round: round, State: state, Control: control, Chunk: chunk}}
}

// codecFrames is one codec's lazily encoded frame set within a
// globalFrames cache: fr, windows of one arena.
type codecFrames struct {
	once  sync.Once
	arena []byte
	fr    [][]byte
	err   error
}

// frames returns the shared serialized broadcast for one wire codec,
// encoding it on first use: state first, then SCAFFOLD's control, frames
// never crossing the seam, each frame quantized independently with its
// own scale (the frame is the quantization unit).
func (b *globalFrames) frames(codec byte) ([][]byte, error) {
	if int(codec) >= len(b.sets) {
		return nil, fmt.Errorf("simnet: unknown wire codec %d", codec)
	}
	s := &b.sets[codec]
	s.once.Do(func() {
		gm := b.gm
		total := len(gm.State) + len(gm.Control)
		// The whole set is encoded into one exactly sized arena, the frames
		// being consecutive windows of it: a codec's broadcast costs its
		// wire bytes, not a grown-by-append buffer per frame — and nothing
		// at all when a retired cache's arena and frame slice fit.
		size, count := 0, 0
		s.err = fl.ChunkStream(gm.State, gm.Control, gm.Chunk, func(_ int, c []float64) error {
			n, err := globalChunkLen(codec, len(c))
			size, count = size+n, count+1
			return err
		})
		if s.err != nil {
			return
		}
		arena, fr := s.arena[:0], s.fr[:0]
		if cap(arena) < size {
			arena = make([]byte, 0, size)
		}
		if cap(fr) < count {
			fr = make([][]byte, 0, count)
		}
		s.err = fl.ChunkStream(gm.State, gm.Control, gm.Chunk, func(off int, c []float64) error {
			enc, err := GlobalChunkMsg{
				Round: gm.Round, Offset: off, Total: total, CtrlLen: len(gm.Control),
				Chunk: gm.Chunk, Last: off+len(c) == total,
				Codec: codec, Payload: c,
			}.appendTo(arena)
			if err != nil {
				return err
			}
			fr = append(fr, enc[len(arena):len(enc):len(enc)])
			arena = enc
			return nil
		})
		s.arena, s.fr = arena, fr
	})
	return s.fr, s.err
}

// RoundBytes reports the bytes moved since the previous call, so the
// engine's CommBytes is measured from the actual serialized traffic
// (implements the engine's byteMeter).
func (f *Federation) RoundBytes() int64 {
	total := f.table.totalBytes()
	delta := total - f.prevBytes
	f.prevBytes = total
	return delta
}

// run executes the protocol over the seated parties: the shared round
// engine to completion, synchronous or buffered-async, with every conn
// served by the connection loop, which run stops on the way out. The
// caller owns the rest of the teardown (partyTable.shutdown).
func (f *Federation) run() (*fl.Result, error) {
	// The hello handshake is setup traffic, not round traffic: reset the
	// byte watermark so round 0's measured CommBytes covers only the
	// round's own messages, matching the analytic model.
	f.prevBytes = f.table.totalBytes()
	cfg, members := f.Cfg, f.table.all()
	numParties, dists := len(members), make([][]float64, len(members))
	for i, m := range members {
		dists[i] = m.dist
	}
	root := rng.New(cfg.Seed)
	initModel := nn.Build(f.Spec, root.Split())
	server := fl.NewServer(cfg, initModel.State(), initModel.ParamCount(), numParties)
	eval := fl.NewEvaluator(f.Spec, f.Test)
	engine, err := fl.NewEngine(cfg, server, eval, numParties, root.Split(), dists)
	if err != nil {
		return nil, err
	}
	if f.Resume != nil {
		if err := engine.Restore(f.Resume); err != nil {
			return nil, err
		}
	} else if f.InitialState != nil {
		if err := engine.SetInitialState(f.InitialState); err != nil {
			return nil, err
		}
	}
	if f.Checkpoint != nil {
		engine.CheckpointEvery = f.CheckpointEvery
		engine.Checkpoint = func(snap *fl.FederationSnapshot) error {
			// The engine snapshots everything it owns; the transport adds
			// the per-party resync controls a restored server needs to
			// answer rejoins.
			snap.PartyControl = f.table.controls()
			return f.Checkpoint(snap)
		}
	}
	f.stateLen = len(server.State())
	f.total = f.stateLen + len(server.Control())
	defer f.stop()
	if cfg.AsyncBuffer > 0 {
		return engine.RunAsync(f) // boots the loop under its own policy
	}
	f.policy = syncFold{f}
	f.serve(f.table.alive()...)
	return engine.Run(f)
}
