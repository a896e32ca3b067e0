package simnet

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// wideFederation is the benchmark's wide-* shape, regenerated small: an
// 8192-input MLP (a 2.1 MB state vector), K = 8 parties of 12 rows, a
// 500-row test set, frames of 4096 elements.
func wideFederation() (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset) {
	const dim, parties, rows, testRows = 8192, 8, 12, 500
	r := rng.New(77)
	gen := func(name string, n int) *data.Dataset {
		d := &data.Dataset{Name: name, X: make([]float64, n*dim), Y: make([]int, n),
			FeatLen: dim, SampleShape: []int{dim}, NumClasses: 2}
		for i := range d.X {
			d.X[i] = r.Normal()
		}
		for i := range d.Y {
			d.Y[i] = i % 2
		}
		return d
	}
	locals := make([]*data.Dataset, parties)
	for i := range locals {
		locals[i] = gen("wide-local", rows)
	}
	cfg := fl.Config{Algorithm: fl.FedAvg, LocalEpochs: 1, BatchSize: 32, LR: 0.0003, Seed: 5, ChunkSize: 4096}
	return cfg, nn.ModelSpec{Kind: nn.KindMLP, InputDim: dim, Classes: 2}, locals, gen("wide-test", testRows)
}

// footprint runs one loopback-TCP federation and reports, in bytes, the
// heap it still holds at the boundary after its last round (post-GC
// HeapAlloc inside the final checkpoint hook, minus what was live before
// it started — the datasets) and everything it allocated. With fake
// parties (serveFakeParty: no model, no buffers beyond a frame) what is
// left is the server role. The hook also collects at the boundary before
// the last round. A collection drops whatever a sync.Pool's victim cache
// still holds, so without that one, whether a pooled buffer counts would
// depend on when the run last collected on its own; after it, the last
// round takes the pooled buffers it uses back out and returns them to the
// pool, where the final collection finds them (a round allocates far less
// than the live heap, so the run does not collect in between).
func footprint(t *testing.T, cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, fake bool) (live, allocated uint64) {
	t.Helper()
	var before, at, after runtime.MemStats
	// Two collections: the first only demotes what an earlier federation
	// left in tensor.Shared's sync.Pools, the second frees it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	opts := ServerOptions{CheckpointEvery: cfg.Rounds - 1, Checkpoint: func(*fl.FederationSnapshot) error {
		runtime.GC()
		runtime.ReadMemStats(&at)
		return nil
	}}
	if fake {
		ln := mustListen(t)
		ln.ServerOptions = opts
		norm, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		stateLen := nn.BuildInference(spec).StateCount()
		_, partyErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals), func(i int) error {
			c, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				return err
			}
			defer c.Close()
			return serveFakeParty(newFrameConn(c), i, locals[i].Len(), stateLen, norm)
		})
		if err != nil {
			t.Fatal(err)
		}
		reportErrs(t, partyErrs)
	} else {
		mustLoopback(t, cfg, spec, locals, test, opts, nil)
	}
	runtime.ReadMemStats(&after)
	if at.HeapAlloc == 0 {
		t.Fatal("the final checkpoint hook never ran")
	}
	return at.HeapAlloc - min(at.HeapAlloc, before.HeapAlloc), after.TotalAlloc - before.TotalAlloc
}

// poolDropsPuts reports whether sync.Pool is discarding Puts, as it does
// on purpose under the race detector (a quarter of them): tensor.Shared
// then re-allocates what it would have reused, so bytes held and bytes
// allocated measure the detector, not the federation.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return true
		}
	}
	return false
}

// TestStateCopyBudget is the memory ledger of README "Performance notes",
// measured: a K = 8 loopback-TCP federation on a 2.1 MB MLP must hold, at
// a round boundary, no more than its roles' budgets — in units of S, one
// state vector — and a round must allocate no more than its budget: 0.25
// S synchronous (measured at most 0.14: the frame cache is recycled), 0.5
// S asynchronous (measured at most 0.41: the frame cache is recycled with
// the snapshot it owns; a cache first minted late in the run, when more
// generations are in flight at once than before, costs its 2 S over the
// 24 rounds measured, ≈ 0.08 S).
//
//	party   params 1, grads 1, momentum 1, first layer's dW scratch 1,
//	        downlink assembly <= 2 (an async party pulls), and from
//	        the pool (<= 1.125 x) the delta 1 and the batch 0.37
//	server  state 1, accumulator 1, round snapshot 1 (sync only), eval
//	        replicas 2 x 1, pooled reply streams foldAhead x 1.125 sync /
//	        K x 1.125 async, per generation in flight 2 (async: its
//	        snapshot and its frames), the free list's retired frame
//	        caches the next generations are built in — as many as were
//	        ever in flight at once, each its frames 1 and, under async,
//	        its snapshot 1 —, K receive buffers of one frame, and the
//	        hook's own checkpoint copy 1
//
// The server's share is what a run against model-less fake parties holds;
// a party's is the rest of the real run, split K ways. The sync server's
// budget is 13 S: 12 before the retired cache was retained, plus that one
// cache. The async server's is 24 S: 19 before retired caches kept their
// snapshots, plus the caches the free list then holds (measured 19.5–22.8
// S over 104 runs, against 13.5–14.7 S before: 3 to 4 caches more),
// capped at 24 S.
func TestStateCopyBudget(t *testing.T) {
	if poolDropsPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector): the pooled buffers this test accounts for are not retained")
	}
	cfg, spec, locals, test := wideFederation()
	S := float64(8 * nn.BuildInference(spec).StateCount())
	K := float64(len(locals))
	for _, mode := range []struct {
		name                 string
		async                int
		party, server, round float64 // budgets, in S
	}{
		{name: "sync", party: 7.6, server: 13, round: 0.25},
		{name: "async", async: 2, party: 7.6, server: 24, round: 0.5},
	} {
		c := cfg
		c.AsyncBuffer = mode.async
		c.Rounds = 12
		liveAll, allocShort := footprint(t, c, spec, locals, test, false)
		liveSrv, _ := footprint(t, c, spec, locals, test, true)
		c.Rounds = 36
		_, allocLong := footprint(t, c, spec, locals, test, false)
		server := float64(liveSrv) / S
		party := (float64(liveAll) - float64(liveSrv)) / S / K
		round := (float64(allocLong) - float64(allocShort)) / 24 / S
		t.Logf("%s: live %.1f S = server %.1f S + %v x party %.2f S; %.2f S allocated per round",
			mode.name, float64(liveAll)/S, server, K, party, round)
		if server > mode.server {
			t.Errorf("%s: the server holds %.1f S at a round boundary, budget %.1f S", mode.name, server, mode.server)
		}
		if party > mode.party {
			t.Errorf("%s: a party holds %.2f S at a round boundary, budget %.2f S", mode.name, party, mode.party)
		}
		if round > mode.round {
			t.Errorf("%s: a round allocates %.2f S, budget %.2f S", mode.name, round, mode.round)
		}
	}
}

// gatedConn scripts a party's end of a pipe for TestDownlinkBufferBound
// (TestDownlinkCutStreamUnpublished uses only its Recv announcements):
// every Recv call is announced (the reader asks for frame n+1 only after
// frame n is decoded and, if it was a broadcast's last, the broadcast
// published, so the n+1-th call means n frames are fully consumed), and
// the first frame of every reply is parked until the test lets it go,
// which holds the trainer on its current generation.
type gatedConn struct {
	Conn
	recvs   chan struct{}
	parked  chan int // the generation a parked reply trained on
	release chan struct{}
}

func (g *gatedConn) Recv() ([]byte, error) {
	g.recvs <- struct{}{}
	return g.Conn.Recv()
}

func (g *gatedConn) Send(b []byte) error {
	if m, _, err := parseUpdateChunk(b); err == nil && m.Offset == 0 {
		g.parked <- m.Round
		<-g.release
	}
	return g.Conn.Send(b)
}

// TestDownlinkBufferBound drives one party session from a server that
// mints ten generations for every one the party trains. Counted, not
// timed: whatever the generation rate the session allocates exactly
// maxDownlinkBufs assembly buffers (one under the trainer, one complete
// and waiting, one filling that supersedes it once complete), every reply
// trains on the newest complete generation that had arrived when the
// trainer came back for more, and a clean shutdown leaves every buffer in
// the session's free list.
func TestDownlinkBufferBound(t *testing.T) {
	cfg, locals, _ := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize = 100 // several frames per broadcast and per reply
	s, err := newPartySession(0, locals[0], spec, cfg, PartySeed(cfg.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Room to spare, so a buffer beyond the bound would be kept and counted
	// rather than dropped by a full list.
	s.dlFree = make(chan []float64, 4*maxDownlinkBufs)
	server, partyEnd := pipe()
	party := &gatedConn{Conn: partyEnd, recvs: make(chan struct{}, 1024), parked: make(chan int), release: make(chan struct{})}
	state := make([]float64, s.client.StateCount())
	done := make(chan error, 1)
	go func() { done <- s.run(party, "", false, 0) }()
	if _, err := server.Recv(); err != nil { // the hello
		t.Fatal(err)
	}
	sent := 0
	mint := func(gen int) {
		t.Helper()
		frames, err := newGlobalFrames(gen, state, nil, 0, s.cfg.ChunkSize).frames(wireCodecF64)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if err := server.Send(fr); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	recvCalls := 0
	consumed := func() { // blocks until the reader has taken in everything sent
		t.Helper()
		for ; recvCalls <= sent; recvCalls++ {
			<-party.recvs
		}
	}
	drainReply := func() {
		t.Helper()
		for {
			raw, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m, _, err := parseUpdateChunk(raw); err != nil {
				t.Fatal(err)
			} else if m.Last {
				return
			}
		}
	}
	mint(0)
	newest := 0
	for burst := 0; burst < 5; burst++ {
		if got := <-party.parked; got != newest {
			t.Fatalf("burst %d: the party trained on generation %d, the newest to reach it was %d", burst, got, newest)
		}
		// The trainer is parked holding its generation: run ahead of it.
		for i := 0; i < 10; i++ {
			newest++
			mint(newest)
		}
		consumed()
		party.release <- struct{}{}
		drainReply()
	}
	<-party.parked // the reply to the last burst
	party.release <- struct{}{}
	drainReply()
	bye, err := Marshal(ShutdownMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Send(bye); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := len(s.dlFree); n != maxDownlinkBufs {
		t.Fatalf("after shutdown the free list holds %d assembly buffers: the session allocated %d or leaked %d, want exactly %d held and all returned",
			n, n, maxDownlinkBufs-n, maxDownlinkBufs)
	}
}

// TestDownlinkHoldsTwo runs pipe federations on sessions whose free
// lists have room to spare, under both schedulers: neither makes a session
// allocate a third assembly buffer — under lockstep rounds the next
// round's first frame can overtake this round's release, nothing more,
// and an async party is never shipped a generation ahead of its answer —
// and all of them are back in the list at shutdown.
func TestDownlinkHoldsTwo(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize, cfg.Rounds = 100, 12
	for _, row := range []struct {
		name  string
		async int
		opts  ServerOptions
	}{
		{name: "sync"},
		{name: "async", async: 1, opts: ServerOptions{RoundTimeout: 200 * time.Millisecond}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := cfg
			cfg.AsyncBuffer = row.async
			fed := pipeFed(t, cfg, spec, test, len(locals), row.opts)
			sessions := make([]*partySession, len(locals))
			for i := range locals {
				s, err := newPartySession(i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				if err != nil {
					t.Fatal(err)
				}
				s.dlFree = make(chan []float64, 4*maxDownlinkBufs)
				sessions[i] = s
			}
			// The party ends stay open after their sessions: the teardown must
			// not wait on a peer that has stopped reading (under async,
			// RoundTimeout bounds the receivers' wait on it).
			_, partyErrs, err := fed.federate(len(locals), func(i int) error {
				conn, err := fed.connect()
				if err != nil {
					return err
				}
				return sessions[i].run(conn, "", false, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			reportErrs(t, partyErrs)
			for i, s := range sessions {
				if n := len(s.dlFree); n < 1 || n > 2 {
					t.Errorf("party %d ended %d generations with %d assembly buffers in its free list, want 1 or 2", i, cfg.Rounds, n)
				}
			}
		})
	}
}
