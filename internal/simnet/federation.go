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
	"github.com/niid-bench/niidbench/internal/tensor"
)

// Federation runs the federated protocol over explicit connections: the
// server goroutine owns aggregation, each party goroutine owns its local
// dataset and model, and all model movement happens through serialized
// messages on Conns. The round machinery — sampling, streaming
// aggregation, metrics, evaluation cadence — is the shared fl.Engine; this
// type is its message-passing Transport. Who is in the federation, on
// which conn, is the table's business (table.go); how a hello gets a party
// in there is admission's (admission.go).
type Federation struct {
	Cfg  fl.Config
	Spec nn.ModelSpec
	Test *data.Dataset
	ServerOptions
	table *partyTable
	// local marks in-process parties (RunLocal): the server then sends
	// per-round kernel compute budgets so K concurrently-training parties
	// split the machine instead of oversubscribing it. Over TCP parties
	// are other processes and the budget stays 0 (uncapped).
	local bool

	prevBytes int64 // byte watermark for per-round accounting
	// streamsOut counts pooled update-stream buffers currently held by
	// readers, staged for the fold or folding — at most foldAhead in a
	// synchronous round, and zero whenever no round or receiver runs.
	streamsOut atomic.Int64
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
	return &Federation{Cfg: cfg, Spec: cfg.ResolveSpec(spec), Test: test, ServerOptions: opts,
		table: newPartyTable(numParties, opts.Resume)}, nil
}

// evict removes a party from the federation: its conn is closed (ending
// any lingering party-side send) and later rounds drop it without
// contact. permanent=true marks a protocol violation — the party lands in
// partyEvicted and a rejoin is refused; permanent=false marks transport
// loss — partySuspect, restored by a rejoin hello. The synchronous round
// loop passes a nil c; the async sender and receiver goroutines pass the
// conn they were serving, so the first of a conn's two goroutines to
// notice wins, the second is a duplicate, and news about an
// already-replaced conn is stale. It reports whether the party moved (and
// OnEvict fired).
func (f *Federation) evict(id int, c *CountingConn, permanent bool, cause error) bool {
	if !f.table.evict(id, c, permanent) {
		return false
	}
	if f.OnEvict != nil {
		f.OnEvict(&EvictionError{Party: id, Permanent: permanent, Cause: cause})
	}
	return true
}

// SyncMembership implements fl.Membership: called at the top of every
// round attempt, from the round loop, it installs the queued rejoins and
// returns the live mask the sampler draws from. Rejoins land here and in
// the broadcast heal window (see healBroadcast), never while a round's
// receivers run, so a round's receiver set is immutable while the round
// runs.
func (f *Federation) SyncMembership(round int) []bool {
	f.installQueuedRejoins()
	live := make([]bool, len(f.table.members))
	for _, m := range f.table.alive() {
		live[m.id] = true
	}
	return live
}

// installQueuedRejoins drains the rejoin queue into the federation (see
// seat) and returns the members restored. A fresh conn that died before
// its handshake completed is dropped; the party stays suspect and may dial
// again. Round loop goroutine only.
func (f *Federation) installQueuedRejoins() (restored []member) {
	for _, m := range f.table.drainRejoins() {
		if err := f.seat(m, true, false); err != nil {
			_ = m.conn.Close()
			continue
		}
		restored = append(restored, m)
	}
	return restored
}

// budget is the per-party kernel compute budget when k parties train at
// once. In-process parties all train concurrently once the global model
// lands: split this run's core share (Cfg.Parallelism, GOMAXPROCS by
// default) across them — the same oversubscription guard as
// fl.Simulation, but carried per-party in the message instead of any
// process-global knob. Parties in other processes are uncapped (0).
func (f *Federation) budget(k int) int {
	if !f.local || k == 0 {
		return 0
	}
	return tensor.Compute{Workers: f.Cfg.Parallelism}.Split(k).Workers
}

// PartyMeta implements fl.Transport.
func (f *Federation) PartyMeta(id int) fl.UpdateMeta { return f.table.get(id).meta }

// TrainRound implements fl.Transport: it broadcasts the round's global
// state to the sampled parties as GlobalChunkMsg frames, then receives
// their reply streams concurrently — tolerating arrival in any order — and
// folds each into the aggregation the moment the next-in-sample-order
// stream is complete, so the server never buffers the whole round.
// Cfg.ChunkSize only sets the frame size (0 is one frame per vector):
// eviction, rejoin and drop-and-renormalise apply at every size.
func (f *Federation) TrainRound(round int, sampled []int, global, control []float64, sink *fl.RoundSink) error {
	bf := newGlobalFrames(round, global, control, f.budget(len(sampled)), f.Cfg.ChunkSize)
	// Bound the replies to the largest legitimate frame, so a hostile
	// length prefix is refused before the frame is read into memory — the
	// memory contract holds even against admitted-but-malicious parties.
	total := len(global) + len(control)
	limit := recvLimitFor(frameCap(f.Cfg.ChunkSize, total))
	failed := f.broadcast(bf, sampled, limit)
	if len(failed) > 0 && f.RejoinGrace > 0 {
		f.healBroadcast(bf, failed, limit)
	}
	if err := f.recvRound(round, sampled, len(global), total, sink); err != nil {
		return err
	}
	f.table.setRound(round + 1)
	return nil
}

// broadcast streams the round's global vectors to every live sampled
// party concurrently — one sender goroutine per connection, so a slow
// consumer delays only its own stream, never the whole broadcast. A party
// whose stream cannot be delivered is suspected (its slot is dropped by
// the fold). Evictions are applied only after every sender has finished,
// so the fold's upfront dead-party reads never race a sender. The IDs
// whose broadcast failed are returned for the heal window.
func (f *Federation) broadcast(bf *globalFrames, sampled []int, limit uint32) map[int]bool {
	var wg sync.WaitGroup
	errs := make([]error, len(sampled))
	for j, id := range sampled {
		m := f.table.get(id)
		if !m.alive() {
			continue
		}
		m.conn.SetRecvLimit(limit)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = bf.send(m.conn, m.codec)
		}()
	}
	wg.Wait()
	failed := map[int]bool{}
	for j, id := range sampled {
		// A failed send is transport loss: the party may rejoin.
		if errs[j] != nil && f.evict(id, nil, false, errs[j]) {
			failed[id] = true
		}
	}
	return failed
}

// healBroadcast is the RejoinGrace window: the round's broadcast failed
// toward the given parties (now suspect, conns closed), so poll the
// rejoin queue for up to the grace period, install any rejoins that land
// and resend the broadcast on the fresh conns. A healed party rejoins
// the round as if nothing happened — it never saw a complete broadcast,
// so it trains exactly once, and the fold proceeds with the full sample:
// the aggregation is bitwise what it would have been without the fault.
// Parties that do not come back in time stay suspect and are dropped by
// the fold as usual. Round loop goroutine only.
func (f *Federation) healBroadcast(bf *globalFrames, want map[int]bool, limit uint32) {
	deadline := time.Now().Add(f.RejoinGrace)
	poll := f.RejoinGrace / 50
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	for len(want) > 0 && time.Now().Before(deadline) {
		time.Sleep(poll)
		for _, m := range f.installQueuedRejoins() {
			if !want[m.id] {
				continue // a different party's rejoin: installed, waits for the next round
			}
			m.conn.SetRecvLimit(limit)
			if err := bf.send(m.conn, m.codec); err != nil {
				f.evict(m.id, nil, false, err)
				continue
			}
			delete(want, m.id)
		}
	}
}

// globalFrames is a round broadcast's encode-once frame cache: the first
// sender for each negotiated wire codec marshals that codec's frame set
// exactly once, and all later senders of the same codec (the per-party
// broadcast goroutines, the heal window's resends, the async hub's
// per-party senders) ship the same immutable byte slices. Server encode
// CPU stays flat in K — a round broadcast costs one encode pass per
// distinct codec in the federation, no matter how many parties, over
// pipes or TCP, receive it. Safe for concurrent use; the slices must
// never be mutated after publication (tcpConn writes them out, chanConn
// copies them).
type globalFrames struct {
	gm   GlobalMsg
	sets [4]codecFrames // indexed by wire codec
}

// newGlobalFrames wraps one round's (or async generation's) broadcast in
// its frame cache. state and control must not be mutated while the cache
// is in use — the frame sets encode lazily, per codec, on first use — so
// async callers pass snapshots (fl.AsyncCoordinator.GlobalSnapshot copies).
func newGlobalFrames(round int, state, control []float64, budget, chunk int) *globalFrames {
	return &globalFrames{gm: GlobalMsg{Round: round, State: state, Control: control, Budget: budget, Chunk: chunk}}
}

// codecFrames is one codec's lazily encoded frame set within a
// globalFrames cache.
type codecFrames struct {
	once sync.Once
	fr   [][]byte
	err  error
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
		// The whole set is encoded into one exactly sized allocation, the
		// frames being consecutive windows of it: a codec's broadcast costs
		// its wire bytes, not a grown-by-append buffer per frame.
		size, count := 0, 0
		s.err = fl.ChunkStream(gm.State, gm.Control, gm.Chunk, func(_ int, c []float64) error {
			n, err := globalChunkLen(codec, len(c))
			size, count = size+n, count+1
			return err
		})
		if s.err != nil {
			return
		}
		arena, fr := make([]byte, 0, size), make([][]byte, 0, count)
		s.err = fl.ChunkStream(gm.State, gm.Control, gm.Chunk, func(off int, c []float64) error {
			enc, err := AppendMarshal(arena, GlobalChunkMsg{
				Round: gm.Round, Offset: off, Total: total, CtrlLen: len(gm.Control),
				Budget: gm.Budget, Chunk: gm.Chunk, Last: off+len(c) == total,
				Codec: codec, Payload: c,
			})
			if err != nil {
				return err
			}
			fr = append(fr, enc[len(arena):len(enc):len(enc)])
			arena = enc
			return nil
		})
		s.fr = fr
	})
	return s.fr, s.err
}

// send ships the broadcast to one party as the shared frame set for its
// negotiated codec.
func (b *globalFrames) send(c *CountingConn, codec byte) error {
	frames, err := b.frames(codec)
	if err != nil {
		return err
	}
	for _, fr := range frames {
		if err := c.Send(fr); err != nil {
			return err
		}
	}
	return nil
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
// engine to completion, synchronous or buffered-async. The caller owns
// the teardown (partyTable.shutdown).
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
	if cfg.AsyncBuffer > 0 {
		return engine.RunAsync(f)
	}
	return engine.Run(f)
}
