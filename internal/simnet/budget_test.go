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
//	party   params 1, grads 1, momentum 1, downlink assembly 1 (the
//	        party reads in line), and from the pool (<= 1.125 x) the
//	        delta 1 and the batch 0.37
//	server  state 1, accumulator 1, round snapshot 1 (sync only), eval
//	        replicas 2 x 1, pooled reply streams foldAhead x 1.125 sync /
//	        K x 1.125 async, per generation in flight 2 (async: its
//	        snapshot and its frames), the free list's retired frame
//	        caches the next generations are built in — as many as were
//	        ever in flight at once, each its frames 1 and, under async,
//	        its snapshot 1 —, and K receive buffers of one frame; the
//	        checkpoint hook borrows the server's state, copying nothing
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
		{name: "sync", party: 5.6, server: 13, round: 0.25},
		{name: "async", async: 2, party: 5.6, server: 24, round: 0.5},
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

// probeConn wraps a party's end of a pipe for the downlink tests. When
// recvs is non-nil every Recv call is announced on it (the party asks for
// frame n+1 only after frame n is decoded, so the n+1-th call means n
// frames are consumed). When s is non-nil every Send records, on the
// session's own goroutine, the assembly buffer s holds, so a test can
// count the buffers a session ever answered from.
type probeConn struct {
	Conn
	recvs chan struct{}
	s     *partySession
	bufs  map[*float64]bool
}

func (c *probeConn) Recv() ([]byte, error) {
	if c.recvs != nil {
		c.recvs <- struct{}{}
	}
	return c.Conn.Recv()
}

func (c *probeConn) Send(b []byte) error {
	if c.s != nil && len(c.s.dl) > 0 {
		c.bufs[&c.s.dl[0]] = true
	}
	return c.Conn.Send(b)
}

// TestDownlinkBufferBound drives one party session from a server that
// runs ahead: it sends generation after generation without waiting for a
// reply, ten generations ahead of the party's first answer and more. The
// party reads in line, so the server is backpressured by the pipe and the
// session answers every generation, oldest unanswered first, in the order
// they were sent, asking for no frame of the next generation before its
// reply to the last is out. It answers all of them from one assembly
// buffer, and while it waits for a broadcast it runs on its caller's
// goroutine alone: a session starts no goroutine of its own.
func TestDownlinkBufferBound(t *testing.T) {
	cfg, locals, _ := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize = 100 // several frames per broadcast and per reply
	s, err := newPartySession(0, locals[0], spec, cfg, PartySeed(cfg.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.client.StateCount() <= cfg.ChunkSize {
		t.Fatal("a reply must span several frames for the in-line count to be exact")
	}
	server, partyEnd := pipe()
	party := &probeConn{Conn: partyEnd, recvs: make(chan struct{}, 1024), s: s, bufs: map[*float64]bool{}}
	state := make([]float64, s.client.StateCount())
	frames, err := newGlobalFrames(0, state, nil, cfg.ChunkSize).frames(wireCodecF64)
	if err != nil {
		t.Fatal(err)
	}
	perGen := len(frames)
	// simnet runs no parallel tests, so the count here is the caller's.
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- s.run(party, "", false, 0) }()
	if _, err := server.Recv(); err != nil { // the hello
		t.Fatal(err)
	}
	<-party.recvs // the session waits for its first broadcast
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Fatalf("%d goroutines while the session waits for a broadcast, want at most %d: the session started one of its own", n, base+1)
	}
	recvCalls := 1
	const gens = 21
	sent := make(chan error, 1)
	go func() {
		for gen := 0; gen < gens; gen++ {
			frames, err := newGlobalFrames(gen, state, nil, cfg.ChunkSize).frames(wireCodecF64)
			for _, fr := range frames {
				if err == nil {
					err = server.Send(fr)
				}
			}
			if err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for want := 0; want < gens; want++ {
		for first := true; ; first = false {
			raw, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			m, _, err := parseUpdateChunk(raw)
			if err != nil {
				t.Fatal(err)
			}
			if m.Round != want {
				t.Fatalf("a reply frame answers generation %d, want %d: the oldest unanswered", m.Round, want)
			}
			if first {
				// The session is parked in this reply's send: it has asked
				// for exactly the frames of generations 0..want.
				for len(party.recvs) > 0 {
					<-party.recvs
					recvCalls++
				}
				if recvCalls != (want+1)*perGen {
					t.Fatalf("answering generation %d the party had asked for %d frames, want %d: it read ahead of its reply",
						want, recvCalls, (want+1)*perGen)
				}
			}
			if m.Last {
				break
			}
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	<-party.recvs // the session waits for the next broadcast
	if n := settleGoroutines(base + 1); n > base+1 {
		t.Fatalf("%d goroutines while the session waits for a broadcast, want at most %d: the session started one of its own", n, base+1)
	}
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
	if n := len(party.bufs); n != 1 || cap(s.dl) != len(state) {
		t.Fatalf("the session answered %d generations from %d assembly buffers (cap %d), want one of %d elements",
			gens, n, cap(s.dl), len(state))
	}
}

// TestDownlinkHoldsOne runs pipe federations under both schedulers and
// pins that every session answers all its generations from one assembly
// buffer: under lockstep rounds and under async, where a party pulls its
// next generation, a party reads a broadcast only after answering the last.
func TestDownlinkHoldsOne(t *testing.T) {
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
			probes := make([]*probeConn, len(locals))
			for i := range locals {
				s, err := newPartySession(i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				if err != nil {
					t.Fatal(err)
				}
				probes[i] = &probeConn{s: s, bufs: map[*float64]bool{}}
			}
			// The party ends stay open after their sessions: the teardown must
			// not wait on a peer that has stopped reading (under async,
			// RoundTimeout bounds the receivers' wait on it).
			_, partyErrs, err := fed.federate(len(locals), func(i int) error {
				conn, err := fed.connect()
				if err != nil {
					return err
				}
				p := probes[i]
				p.Conn = conn
				return p.s.run(p, "", false, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			reportErrs(t, partyErrs)
			for i, p := range probes {
				if n := len(p.bufs); n != 1 {
					t.Errorf("party %d answered its generations from %d assembly buffers, want 1", i, n)
				}
			}
		})
	}
}
