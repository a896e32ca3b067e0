package simnet

import (
	"github.com/niid-bench/niidbench/internal/fl"
)

// This file is the transport half of buffered-async aggregation
// (Config.AsyncBuffer > 0): Federation.RunAsync implements
// fl.AsyncTransport over the same conns, framing, membership machine and
// connection loop the synchronous rounds use. The round barrier is gone —
// every party trains continuously against whatever global generation last
// reached it:
//
//   - a party pulls its next generation: each conn's sender ships the
//     newest generation once the party has answered every generation the
//     conn was shipped (Federation.claim), so a party is never shipped a
//     generation ahead of its answer, a slow one skips the generations
//     minted while it trained, and a rejoined conn is shipped the newest
//     generation at once;
//   - each conn's receiver serves asyncFold: its turn comes at once, and
//     every complete update stream counts as the party's answer, then
//     folds into the fl.AsyncCoordinator the moment it finishes, tagged
//     with the generation it trained against for the staleness discount;
//   - the membership loop (RunAsync) keeps the Resynced round stamp
//     current and applies the one quorum rule (Federation.quorum, which
//     installs queued rejoins), on the loop's one wait.
//
// The wire protocol is the synchronous one: generations ride the Round
// fields of GlobalChunkMsg/UpdateChunkMsg, each generation's broadcast is
// encoded once and shared by every sender, and update streams come off the
// same reader (Federation.read).

// asyncFold is the asynchronous fold policy: arrival order into the
// coordinator. A receiver reads for the conn's lifetime — never stopping
// on run completion alone: after Done the party may still have one reply
// in flight, and draining it (the fold is then a no-op) is what keeps the
// party from blocking on a full pipe before it can read the ShutdownMsg.
// The conn's EOF — every party closes its end when its session ends — is
// the receiver's own termination, or, with RoundTimeout set, that long a
// silence once the run is over (see Federation.idle).
type asyncFold struct {
	f     *Federation
	coord *fl.AsyncCoordinator
}

// turn comes at once; the generation the party reports training against
// is adopted from the stream, and the coordinator bounds it.
func (asyncFold) turn(member) (int, bool) { return -1, true }

// take counts a complete stream as the party's answer the moment it
// arrives, whatever the fold then makes of it — folded, fairness-dropped
// or deduplicated — so the conn's sender may ship the party its next
// generation while this one folds; then it folds the stream. It ends the
// receiver, and the conn's count with it, on a failed stream or a
// coordinator rejection.
func (a asyncFold) take(m member, st stagedUpdate) bool {
	f := a.f
	if st.err == nil {
		f.update(func() { f.answered[m.conn]++ })
		if a.fold(m, st) {
			return true
		}
	}
	f.update(func() { delete(f.answered, m.conn) })
	return false
}

// fold folds one complete stream and, when the fold closed a buffer,
// publishes the newest generation, snapshotted into a recycled frame
// cache (see Federation.frameCache) — none once the run is done: the
// final generation is broadcast to nobody. It reports false on a
// coordinator rejection.
func (a asyncFold) fold(m member, st stagedUpdate) bool {
	f := a.f
	if !f.table.firstFold(m.id, st.round) {
		// A rejoin replayed the contribution this server already folded
		// (the party cannot know that); drop it silently.
		f.release(st)
		return true
	}
	u := st.update(f.stateLen)
	flushed, done, err := a.coord.Fold(m.id, u, st.round)
	if err == nil {
		// Keep the tracked SCAFFOLD c_i mirroring the party's own
		// bookkeeping: the party advanced its c_i when it trained, whether
		// or not the fold still counted.
		f.table.addControl(m.id, u.DeltaC)
	}
	f.release(st)
	if err != nil {
		// done distinguishes a poisoned run (not the party's fault) from a
		// rejected update (aggregation contract violation).
		if !done {
			f.evict(m.id, m.conn, true, err)
		}
		return false
	}
	switch {
	case flushed && !done:
		// Another receiver's flush may have landed since: publish the
		// newest generation, unless that flush was the final one (the
		// receiver that made it wakes the membership loop).
		if bf := f.frameCache(a.coord.CopyGlobal); bf != nil {
			f.publish(bf, nil)
		}
	case done:
		// The run is over from here: no conn is shipped another
		// generation, which nobody would fold (see claim).
		f.update(func() { f.done = true })
	}
	return true
}

// RunAsync implements fl.AsyncTransport: it drives the buffered-async
// protocol over the federation's conns — each generation's broadcast
// built in a frame cache that owns its snapshot of the global and is
// recycled with it (see fold) — until the coordinator completes, the run
// is poisoned, or the federation stays below quorum past its budget (see
// quorum).
func (f *Federation) RunAsync(coord *fl.AsyncCoordinator) error {
	bf := f.frameCache(coord.CopyGlobal)
	if bf == nil {
		return nil // resumed from the final generation
	}
	// Encode the configured codec eagerly so an unencodable initial state
	// fails the run up front instead of surfacing as per-party evictions.
	if _, err := bf.frames(wireCodec(f.Cfg.Codec)); err != nil {
		return err
	}
	f.policy, f.answered = asyncFold{f, coord}, make(map[*CountingConn]int)
	f.serve(f.table.alive()...)
	f.publish(bf, nil)

	for !coord.Done() && coord.Failed() == nil {
		// Keep the Resynced stamp current so a rejoin reports the
		// generation the party is about to receive.
		f.table.setRound(coord.Generation())
		// Below quorum the live parties keep folding; the wait only bounds
		// how long the federation may stay short.
		live, until, err := f.quorum(coord.Generation(), false)
		if err != nil {
			return err
		}
		if until.IsZero() {
			f.short = nil
		}
		coord.SetLive(len(live))
		f.wait(until)
	}
	return nil
}
