package simnet

import (
	"fmt"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
)

// This file is the transport half of buffered-async aggregation
// (Config.AsyncBuffer > 0): Federation.RunAsync implements
// fl.AsyncTransport over the same conns, framing and membership machine
// the synchronous rounds use. The round barrier is gone — every party
// trains continuously against whatever global generation last reached it:
//
//   - one sender goroutine per party pushes each newly minted generation,
//     conflating a backlog down to the newest (a slow party skips
//     intermediate generations instead of queueing them);
//   - one receiver goroutine per party reads complete update streams and
//     folds them into the fl.AsyncCoordinator the moment they finish,
//     tagged with the generation they trained against for the staleness
//     discount;
//   - the main loop owns membership: it installs queued rejoins, keeps
//     the resync round stamp current, and watches liveness.
//
// The wire protocol is the synchronous one: generations ride the Round
// fields of GlobalChunkMsg/UpdateChunkMsg, each generation's broadcast is
// encoded once and shared by every sender (the encode-once cache the sync
// broadcast uses), and update streams come off the same updateReader.

// asyncHub publishes the newest generation's encode-once frame cache to
// the sender goroutines. Senders wait for a generation newer than the
// one they last shipped, then pull their party's negotiated codec out of
// the shared cache — each codec is serialized once per generation no
// matter how many parties ride it. Publication keeps only the newest, so
// the hub is also the conflation point.
type asyncHub struct {
	mu   sync.Mutex
	cond *sync.Cond
	gen  int
	bf   *globalFrames
	has  bool
	done bool
}

func newAsyncHub() *asyncHub {
	h := &asyncHub{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish installs bf as the newest generation unless a newer one
// already landed (two receivers may flush back-to-back and race here —
// generation order wins, not arrival order).
func (h *asyncHub) publish(gen int, bf *globalFrames) {
	h.mu.Lock()
	if !h.has || gen > h.gen {
		h.gen, h.bf, h.has = gen, bf, true
	}
	h.mu.Unlock()
	h.cond.Broadcast()
}

// setDone releases every waiting sender for exit.
func (h *asyncHub) setDone() {
	h.mu.Lock()
	h.done = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

func (h *asyncHub) isDone() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// waitNewer blocks until a generation newer than sent is published (ok
// true) or the run is over (ok false).
func (h *asyncHub) waitNewer(sent int) (gen int, bf *globalFrames, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.done && (!h.has || h.gen <= sent) {
		h.cond.Wait()
	}
	if h.done {
		return 0, nil, false
	}
	return h.gen, h.bf, true
}

// asyncSend pushes every newly minted generation to one party, always as
// serialized frames in the party's negotiated wire codec (resolved once:
// the codec is fixed for the conn's lifetime, renegotiated only by a
// rejoin, which starts a fresh sender). A send failure is transport loss
// toward that party only; after the run completes the conn may already
// be torn down, so late failures are not reported.
func (f *Federation) asyncSend(p member, hub *asyncHub, poke func()) {
	sent := -1
	for {
		gen, bf, ok := hub.waitNewer(sent)
		if !ok {
			return
		}
		if err := bf.send(p.conn, p.codec); err != nil {
			// Transport loss toward this party — or an encode failure (a
			// non-finite value the quantizer refused) poisoning this codec's
			// frame set for the generation; either way the party is cut
			// loose and may rejoin once a clean generation is minted.
			if !hub.isDone() && f.evict(p.id, p.conn, false, fmt.Errorf("simnet: send to party %d: %w", p.id, err)) {
				poke()
			}
			return
		}
		sent = gen
	}
}

// asyncRecv is the asynchronous scheduler: it reads one party's update
// streams for the conn's lifetime, folding each complete stream into the
// coordinator in arrival order, tagged with the generation it trained
// against. It exits on conn loss, protocol violation, or coordinator
// rejection — never on run completion alone: after Done the party may
// still have one reply in flight, and draining it (the fold is then a
// no-op) is what keeps the party from blocking on a full pipe before it
// can read the ShutdownMsg. The conn's EOF — every party closes its end
// when its session ends — is the receiver's own termination.
func (f *Federation) asyncRecv(p member, hub *asyncHub, coord *fl.AsyncCoordinator, poke func(), total, stateLen int) {
	id, c := p.id, p.conn
	r := f.newUpdateReader(id, c, p.meta, total)
	r.idleStart = true
	budget := f.budget(len(f.table.members))
	for {
		// The generation the party reports training against is adopted from
		// the stream; the coordinator bounds it.
		st := r.read(-1)
		if st.err != nil {
			// This conn's receive side is over whatever happens next; closing
			// it also frees its sender if that is still blocked toward a peer
			// that stopped reading — after Done nothing else would.
			_ = c.Close()
			if !hub.isDone() && f.evict(id, c, st.fatal, st.err) {
				poke()
			}
			return
		}
		if !f.table.firstFold(id, st.round) {
			// A rejoin replayed the contribution this server already
			// folded (the party cannot know that); drop it silently.
			f.release(st)
			continue
		}
		u := st.update(stateLen)
		flushed, done, ferr := coord.Fold(id, u, st.round)
		if ferr == nil {
			// Keep the tracked SCAFFOLD c_i mirroring the party's own
			// bookkeeping: the party advanced its c_i when it trained,
			// whether or not the fold still counted.
			f.table.addControl(id, u.DeltaC)
		}
		f.release(st)
		if ferr != nil {
			// done distinguishes a poisoned run (not the party's fault)
			// from a rejected update (aggregation contract violation).
			if !done && !hub.isDone() {
				f.evict(id, c, true, ferr)
			}
			poke()
			return
		}
		if flushed && !done {
			gen, state, control := coord.GlobalSnapshot()
			hub.publish(gen, newGlobalFrames(gen, state, control, budget, f.Cfg.ChunkSize))
		}
		if flushed || done {
			poke()
		}
	}
}

// RunAsync implements fl.AsyncTransport: it drives the buffered-async
// protocol over the federation's conns until the coordinator completes,
// the run is poisoned, or every party is lost past the rejoin grace.
func (f *Federation) RunAsync(coord *fl.AsyncCoordinator) error {
	gen, state, control := coord.GlobalSnapshot()
	total := len(state) + len(control)
	stateLen := len(state)
	limit := recvLimitFor(frameCap(f.Cfg.ChunkSize, total))
	// All parties train concurrently all the time, so a local federation
	// splits its cores across every party, not just a round's sample.
	budget := f.budget(len(f.table.members))

	hub := newAsyncHub()
	poke := make(chan struct{}, 1)
	pokeFn := func() {
		select {
		case poke <- struct{}{}:
		default:
		}
	}
	var sendWg, recvWg sync.WaitGroup
	start := func(p member) {
		p.conn.SetRecvLimit(limit)
		sendWg.Add(1)
		recvWg.Add(1)
		go func() {
			defer sendWg.Done()
			f.asyncSend(p, hub, pokeFn)
		}()
		go func() {
			defer recvWg.Done()
			f.asyncRecv(p, hub, coord, pokeFn, total, stateLen)
		}()
	}

	var runErr error
	if !coord.Done() {
		bf := newGlobalFrames(gen, state, control, budget, f.Cfg.ChunkSize)
		// Encode the configured codec eagerly so an unencodable initial
		// state fails the run up front, as the old eager encode did,
		// instead of surfacing as per-party evictions.
		if _, err := bf.frames(wireCodec(f.Cfg.Codec)); err != nil {
			return err
		}
		hub.publish(gen, bf)
		for _, p := range f.table.alive() {
			start(p)
		}

		var allDeadSince, belowQuorumSince time.Time
		quorumBudget := time.Duration(f.Cfg.QuorumRetries) * f.Cfg.QuorumRetryWait
		for {
			if coord.Done() || coord.Failed() != nil {
				break
			}
			select {
			case <-poke:
			case <-time.After(2 * time.Millisecond):
			}
			// Keep the resync stamp current so a rejoin handshake reports
			// the generation the party is about to receive.
			f.table.setRound(coord.Generation())
			for _, p := range f.installQueuedRejoins() {
				start(p)
			}
			live := len(f.table.alive())
			coord.SetLive(live)
			if live > 0 {
				allDeadSince = time.Time{}
				if live >= f.Cfg.MinParties {
					belowQuorumSince = time.Time{}
					continue
				}
				// Degraded below quorum but not dead: the async mirror of
				// the synchronous skip-and-retry. Give rejoins the same
				// total budget (QuorumRetries x QuorumRetryWait) the sync
				// engine allows, then fail loudly with the same typed error
				// instead of limping along on fewer parties than the
				// operator required.
				if belowQuorumSince.IsZero() {
					belowQuorumSince = time.Now()
				}
				if waited := time.Since(belowQuorumSince); !f.table.rejoinQueued() && waited >= quorumBudget {
					runErr = &fl.QuorumError{
						Round: coord.Generation(), Live: live, Min: f.Cfg.MinParties,
						Attempts: f.Cfg.QuorumRetries,
					}
					break
				}
				continue
			}
			if allDeadSince.IsZero() {
				allDeadSince = time.Now()
			}
			if !f.table.rejoinQueued() && time.Since(allDeadSince) >= f.RejoinGrace {
				runErr = fmt.Errorf("simnet: async federation lost every party at generation %d", coord.Generation())
				break
			}
		}
	}

	// Teardown. Senders first — a conn must never see two concurrent
	// writers — then a goodbye on every live conn. Receivers are not
	// closed out from under their parties: each drains its conn until the
	// party, having read the ShutdownMsg past any reply it was still
	// uploading, closes its end.
	hub.setDone()
	sendWg.Wait()
	if enc, err := Marshal(ShutdownMsg{}); err == nil {
		for _, p := range f.table.alive() {
			_ = p.conn.Send(enc)
		}
	}
	recvWg.Wait()
	return runErr
}
