package simnet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// recordConn captures everything sent through it, so a fault stream's
// observable behavior (which sends survive, what bytes they carry) can be
// compared across instances.
type recordConn struct {
	frames [][]byte
}

func (c *recordConn) Send(b []byte) error {
	c.frames = append(c.frames, append([]byte{}, b...))
	return nil
}
func (c *recordConn) Recv() ([]byte, error) { return nil, fmt.Errorf("recordConn: no recv") }
func (c *recordConn) Close() error          { return nil }

func (c *recordConn) SetReadDeadline(time.Time) error { return nil }
func (c *recordConn) SetRecvLimit(uint32)             {}

// faultTrace pushes n frames through a fresh fault stream for one party
// and records each send's fate: delivered bytes (nil when the send was
// swallowed) and whether the injected kill fired.
func faultTrace(plan FaultPlan, party, n int) []string {
	inner := &recordConn{}
	conn := plan.ForParty(party).Wrap(inner)
	frame := []byte{msgUpdateChunk, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var trace []string
	for i := 0; i < n; i++ {
		before := len(inner.frames)
		err := conn.Send(frame)
		got := "swallowed"
		if len(inner.frames) > before {
			got = fmt.Sprintf("%x", inner.frames[len(inner.frames)-1])
		}
		trace = append(trace, fmt.Sprintf("%v/%s", err != nil, got))
	}
	return trace
}

func TestFaultPlanDeterministicPerParty(t *testing.T) {
	plan := FaultPlan{Seed: 42, DropProb: 0.2, CorruptProb: 0.2, TruncateProb: 0.2}
	a := faultTrace(plan, 3, 64)
	b := faultTrace(plan, 3, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (plan, party) diverged at send %d: %q vs %q", i, a[i], b[i])
		}
	}
	// Distinct parties draw independent streams: over 64 sends at these
	// rates, identical schedules would mean the streams are not
	// party-keyed at all.
	c := faultTrace(plan, 4, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("parties 3 and 4 produced identical fault schedules")
	}
}

func TestFaultPlanGraceAndEmpty(t *testing.T) {
	// Grace exempts the first sends entirely — bytes through untouched —
	// even under certain faults.
	plan := FaultPlan{Seed: 1, DropProb: 1, Grace: 2}
	inner := &recordConn{}
	conn := plan.ForParty(0).Wrap(inner)
	for i := 0; i < 2; i++ {
		if err := conn.Send([]byte{9, 8, 7}); err != nil {
			t.Fatalf("graced send %d failed: %v", i, err)
		}
	}
	if len(inner.frames) != 2 || inner.frames[0][0] != 9 {
		t.Fatalf("graced sends altered: %v", inner.frames)
	}
	if err := conn.Send([]byte{9, 8, 7}); err == nil {
		t.Fatal("post-grace send survived DropProb=1")
	}
	// The empty plan wraps to the identity — same Conn value back.
	empty := FaultPlan{Seed: 7, Grace: 3}
	if !empty.Empty() {
		t.Fatal("plan with only Seed+Grace should be empty")
	}
	base := &recordConn{}
	if got := empty.ForParty(1).Wrap(base); got != Conn(base) {
		t.Fatal("empty plan did not return the conn unchanged")
	}
}

func TestCodecRoundTripResync(t *testing.T) {
	in := ResyncMsg{Control: []float64{0.5, -2.25, 0}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(ResyncMsg)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if len(got.Control) != 3 || got.Control[1] != -2.25 {
		t.Fatalf("round trip: %+v", got)
	}
	// A resync for a non-SCAFFOLD party carries no control vector.
	b2, err := Marshal(ResyncMsg{})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Unmarshal(b2)
	if err != nil {
		t.Fatal(err)
	}
	if m := got2.(ResyncMsg); len(m.Control) != 0 {
		t.Fatalf("empty-control round trip: %+v", m)
	}
	// Every truncation must error — never decode, never panic.
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("resync truncation at %d/%d decoded", cut, len(b))
		}
	}
}

func TestCodecRoundTripRejoinHello(t *testing.T) {
	in := HelloMsg{ID: 7, N: 321, Token: "secret", Rejoin: true, LabelDist: []float64{0.25, 0.75}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(HelloMsg)
	if got.ID != 7 || got.N != 321 || got.Token != "secret" || !got.Rejoin || len(got.LabelDist) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	// The flag itself must round-trip in both states.
	in.Rejoin = false
	b2, _ := Marshal(in)
	if out2, err := Unmarshal(b2); err != nil || out2.(HelloMsg).Rejoin {
		t.Fatalf("Rejoin=false round trip: %v %+v", err, out2)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("rejoin hello truncation at %d/%d decoded", cut, len(b))
		}
	}
}

// rstConn lets a party complete one round reply and then hard-kills the
// connection with an RST (SO_LINGER 0) — the deterministic stand-in for a
// party process dying between rounds. The kill waits a beat after the
// reply's Last frame so the server's reader (every party is inside the
// fold-ahead window here) has drained the reply before the RST discards
// anything still buffered; the RST
// itself makes the server's next write toward the party fail fast instead
// of vanishing into a half-closed socket's buffer.
type rstConn struct {
	Conn
	tcp    *net.TCPConn
	killed bool
}

func (k *rstConn) Send(b []byte) error {
	if k.killed {
		return fmt.Errorf("rstConn: connection was killed")
	}
	if err := k.Conn.Send(b); err != nil {
		return err
	}
	if len(b) > 0 && b[0] == msgUpdateChunk {
		if m, err := Unmarshal(b); err == nil {
			if um, ok := m.(UpdateChunkMsg); ok && um.Last {
				k.killed = true
				time.Sleep(50 * time.Millisecond) // let the server drain the reply
				_ = k.tcp.SetLinger(0)
				_ = k.tcp.Close()
			}
		}
	}
	return nil
}

// dropoutParty runs one party that completes round 0, kills its own
// connection with an RST, then immediately redials as a rejoin and serves
// the rest of the federation on the same in-process session. wrap, when
// non-nil, goes around both of its sockets.
func dropoutParty(t *testing.T, addr string, id int, ds *data.Dataset, spec nn.ModelSpec, cfg fl.Config, wrap func(Conn) Conn) {
	if wrap == nil {
		wrap = func(c Conn) Conn { return c }
	}
	t.Helper()
	s, err := newPartySession(id, ds, spec, cfg, PartySeed(cfg.Seed, id))
	if err != nil {
		t.Errorf("dropout party %d: %v", id, err)
		return
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("dropout party %d dial: %v", id, err)
		return
	}
	kc := &rstConn{Conn: wrap(newFrameConn(c)), tcp: c.(*net.TCPConn)}
	if err := s.run(kc, "", false, 0); err == nil {
		t.Errorf("dropout party %d finished cleanly before its kill fired", id)
		return
	}
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("dropout party %d redial: %v", id, err)
		return
	}
	defer c2.Close()
	if err := s.run(wrap(newFrameConn(c2)), "", true, 0); err != nil {
		t.Errorf("rejoined party %d: %v", id, err)
	}
}

// laggardConn delays the first frame of this party's first reply, holding
// the server's round-0 fold open long enough for the dropout party's kill
// and rejoin hello to land before the server reaches round 1.
type laggardConn struct {
	Conn
	once sync.Once
}

func (l *laggardConn) Send(b []byte) error {
	if len(b) > 0 && b[0] == msgUpdateChunk {
		l.once.Do(func() { time.Sleep(400 * time.Millisecond) })
	}
	return l.Conn.Send(b)
}

// runRejoinTCP runs a TCP federation where party `dropIdx` dies
// after round 0 and rejoins; the other parties serve normally. wrap, when
// non-nil, goes around every party-side socket.
func runRejoinTCP(t *testing.T, cfg fl.Config, locals []*data.Dataset, test *data.Dataset, dropIdx int, wrap func(Conn) Conn) *fl.Result {
	t.Helper()
	spec, _ := data.Model("adult")
	ln := mustListen(t)
	// The heal window is what lets the round re-deliver its broadcast to
	// the rejoined conn instead of dropping the party.
	ln.RejoinGrace = 5 * time.Second
	res, partyErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals), func(i int) error {
		if i == dropIdx {
			dropoutParty(t, ln.Addr(), i, locals[i], spec, cfg, wrap)
			return nil
		}
		return servePartyTCP(ln.Addr(), i, locals[i], spec, cfg, func(conn Conn) Conn {
			if wrap != nil {
				conn = wrap(conn)
			}
			if i == 0 {
				// Hold round 0's fold open so the dropout's rejoin hello is
				// queued before the server starts round 1.
				return &laggardConn{Conn: conn}
			}
			return conn
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
	return res
}

// TestRejoinBitwiseAllAlgorithms is the elastic-membership acceptance
// test: for every algorithm, a federation where one party dies between
// rounds and rejoins must complete every round with no dropped updates
// and finish bitwise identical to the never-dropped reference — the
// departure was fully healed (resync restored the SCAFFOLD control
// variate, the heal window re-delivered the broadcast), so the math never
// noticed. The kill lands after round 0, where the server-tracked control
// sum equals the party's own c_i exactly.
func TestRejoinBitwiseAllAlgorithms(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 300, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range fl.ExtendedAlgorithms() {
		t.Run(string(algo), func(t *testing.T) {
			cfg := fl.Config{
				Algorithm: algo, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Mu: 0.01, Seed: 5, ChunkSize: 256,
				// Quorum at full strength: if the heal window somehow
				// misses, the round must wait for the rejoin rather than
				// thin the aggregation.
				MinParties: 3, QuorumWait: 3 * time.Second,
			}
			ref := runChunkedTCP(t, cfg, locals, test)
			got := runRejoinTCP(t, cfg, locals, test, 1, nil)
			if len(got.Curve) != cfg.Rounds {
				t.Fatalf("completed %d/%d rounds", len(got.Curve), cfg.Rounds)
			}
			for _, m := range got.Curve {
				if len(m.Dropped) != 0 {
					t.Fatalf("round %d dropped %v despite rejoin", m.Round, m.Dropped)
				}
				if len(m.Sampled) != 3 {
					t.Fatalf("round %d sampled %v, want all 3 parties", m.Round, m.Sampled)
				}
			}
			if len(got.FinalState) != len(ref.FinalState) {
				t.Fatalf("state lengths differ: %d vs %d", len(got.FinalState), len(ref.FinalState))
			}
			for i := range ref.FinalState {
				if got.FinalState[i] != ref.FinalState[i] {
					t.Fatalf("final state diverged at [%d]: %v vs %v", i, got.FinalState[i], ref.FinalState[i])
				}
			}
			if got.FinalAccuracy != ref.FinalAccuracy {
				t.Fatalf("accuracy diverged: %v vs %v", got.FinalAccuracy, ref.FinalAccuracy)
			}
		})
	}
}

// TestChunkZeroTCPDropAndRejoin pins what ChunkSize 0 gained when it
// stopped being a separate protocol: over real TCP with one frame per
// vector, a party whose conn dies mid-stream or who frames garbage costs
// the round only its own update — it lands in RoundMetrics.Dropped and the
// run completes, where whole-message mode used to abort — and a party
// that dies between rounds and rejoins heals bitwise, exactly as it does
// at any bounded frame size.
func TestChunkZeroTCPDropAndRejoin(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 300, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	cfg := fl.Config{
		Algorithm: fl.Scaffold, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 0,
	}

	// runWithOffender serves two honest TCP parties and one scripted peer
	// (ID 2) that answers its first broadcast with misbehave.
	runWithOffender := func(t *testing.T, misbehave func(conn Conn, g GlobalMsg) error) (*fl.Result, []Event) {
		ln := mustListen(t)
		var events eventLog
		ln.Events = events.add
		res, partyErrs, serveErr := federateTCP(ln, 3, cfg, spec, test, 3, func(i int) error {
			if i < 2 {
				return DialPartyOpts(ln.Addr(), i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{})
			}
			c, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				return err
			}
			defer c.Close()
			conn := newFrameConn(c)
			rawParty(t, conn, HelloMsg{ID: 2, N: 80, LabelDist: []float64{0.5, 0.5}},
				func(g GlobalMsg) error { return misbehave(conn, g) })
			return nil
		})
		if serveErr != nil {
			t.Fatalf("ChunkSize 0 federation aborted: %v", serveErr)
		}
		reportErrs(t, partyErrs)
		if len(res.Curve) != cfg.Rounds {
			t.Fatalf("completed %d/%d rounds", len(res.Curve), cfg.Rounds)
		}
		assertEvictedAt(t, res.Curve, 2, 0)
		return res, events.of(Suspected, Evicted)
	}

	t.Run("conn dies mid-stream", func(t *testing.T) {
		_, evictions := runWithOffender(t, func(conn Conn, g GlobalMsg) error {
			// SCAFFOLD's stream at ChunkSize 0 is two frames: send the
			// delta vector, then die before the control delta.
			total := len(g.State) + len(g.Control)
			b, err := Marshal(UpdateChunkMsg{Round: g.Round, Total: total, N: 80,
				Tau: fl.PredictTau(cfg, 80), Chunk: make([]float64, len(g.State))})
			if err != nil {
				return err
			}
			if err := conn.Send(b); err != nil {
				return err
			}
			return conn.Close()
		})
		if len(evictions) != 1 || evictions[0].Party != 2 || evictions[0].Kind != Suspected {
			t.Fatalf("want one suspect (rejoinable) departure of party 2, got %v", evictions)
		}
	})
	t.Run("garbage frame", func(t *testing.T) {
		_, evictions := runWithOffender(t, func(conn Conn, g GlobalMsg) error {
			return conn.Send([]byte{0xde, 0xad, 0xbe, 0xef})
		})
		if len(evictions) != 1 || evictions[0].Party != 2 || evictions[0].Kind != Evicted {
			t.Fatalf("want one permanent eviction of party 2, got %v", evictions)
		}
	})
	t.Run("rejoin heals bitwise", func(t *testing.T) {
		c := cfg
		c.MinParties, c.QuorumWait = 3, 3*time.Second
		ref := runChunkedTCP(t, c, locals, test)
		got := runRejoinTCP(t, c, locals, test, 1, nil)
		for _, m := range got.Curve {
			if len(m.Dropped) != 0 || len(m.Sampled) != 3 {
				t.Fatalf("round %d sampled %v dropped %v despite rejoin", m.Round, m.Sampled, m.Dropped)
			}
		}
		for i := range ref.FinalState {
			if got.FinalState[i] != ref.FinalState[i] {
				t.Fatalf("final state diverged at [%d]: %v vs %v", i, got.FinalState[i], ref.FinalState[i])
			}
		}
	})
}

// TestEmptyFaultPlanBitwise pins the fault machinery's zero cost: dialing
// through an explicitly empty FaultPlan (and the rejoin-capable dial
// path) must produce bitwise the run a plain party session produces.
func TestEmptyFaultPlanBitwise(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.ChunkSize = 256
	spec, _ := data.Model("adult")
	ref := runChunkedTCP(t, cfg, locals, test)

	res := mustLoopback(t, cfg, spec, locals, test, ServerOptions{},
		func(int) PartyOptions { return PartyOptions{Rejoin: true, Faults: &FaultPlan{}} })
	for i := range ref.FinalState {
		if res.FinalState[i] != ref.FinalState[i] {
			t.Fatalf("empty fault plan diverged at [%d]", i)
		}
	}
}

// soakRejoin is the drop-chaos soaks' redial policy. A dropped party's
// redial is admitted at once — eight -race runs of each soak on a 2-core
// box saw no refused redial while the server ran — so five refused
// redials (75 ms of backoff) is a wide margin. The budget is also the
// whole tail of a party cut off as the run ends, which redials the gone
// server until it runs out.
var soakRejoin = PartyOptions{
	Rejoin:           true,
	RejoinBackoff:    5 * time.Millisecond,
	RejoinBackoffMax: 20 * time.Millisecond,
	RejoinAttempts:   5,
}

// TestChaosSoakDropRejoin is the -race soak: a 48-party federation (12 in
// -short) over loopback TCP where every party dials through a fault plan
// that kills connections mid-round, every party rejoins with fast
// backoff, and the quorum machinery keeps rounds running. The federation
// must complete its full schedule — never abort — no matter how the
// drops land, and the chaos must actually have happened (evictions > 0).
func TestChaosSoakDropRejoin(t *testing.T) {
	parties, rounds := 48, 3
	if testing.Short() {
		parties = 12
	}
	train, test, err := data.Load("adult", data.Config{TrainN: parties * 12, TestN: 100, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.Scaffold, Rounds: rounds, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Seed: 7, ChunkSize: 512,
		MinParties: parties / 2, QuorumWait: 4 * time.Second,
	}
	spec, _ := data.Model("adult")
	var events eventLog
	opts := ServerOptions{
		RoundTimeout: 20 * time.Second,
		RejoinGrace:  300 * time.Millisecond,
		Events:       events.add,
	}
	plan := FaultPlan{Seed: 99, DropProb: 0.01, Grace: 1}
	// Party errors are part of the chaos (final redials against a
	// finished server fail); the server-side result is the oracle.
	res, _, err := RunLoopback(cfg, spec, locals, test, opts, func(int) PartyOptions {
		po := soakRejoin
		po.Faults = &plan
		return po
	})
	if err != nil {
		t.Fatalf("soak aborted (evictions %d): %v", len(events.of(Suspected, Evicted)), err)
	}
	if len(res.Curve) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Curve), rounds)
	}
	if len(events.of(Suspected, Evicted)) == 0 {
		t.Fatal("soak injected no faults — chaos did not happen")
	}
}

// TestEvictionLeavesNoGoroutines runs a chaotic federation with drops and
// rejoins under both schedulers, then verifies every receiver, sender,
// handler and party goroutine has terminated — an evicted party's
// receiver must die with its conn, not linger blocked on a read.
func TestEvictionLeavesNoGoroutines(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 120, TestN: 60, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 6, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	for _, sched := range []struct {
		name  string
		async int
	}{{"sync", 0}, {"async", 3}} {
		t.Run(sched.name, func(t *testing.T) {
			// simnet runs no parallel tests, so the count at test start is
			// the baseline.
			before := runtime.NumGoroutine()
			cfg := fl.Config{
				Algorithm: fl.FedAvg, Rounds: 3, LocalEpochs: 1, BatchSize: 16,
				LR: 0.05, Seed: 9, ChunkSize: 256, AsyncBuffer: sched.async,
				MinParties: 3, QuorumWait: time.Second,
			}
			plan := FaultPlan{Seed: 5, DropProb: 0.05, Grace: 1}
			opts := ServerOptions{RoundTimeout: 10 * time.Second, RejoinGrace: 200 * time.Millisecond}
			_, _, serveErr := RunLoopback(cfg, spec, locals, test, opts, func(int) PartyOptions {
				po := soakRejoin
				po.Faults = &plan
				return po
			})
			var qe *fl.QuorumError
			if serveErr != nil && !errors.As(serveErr, &qe) {
				t.Fatal(serveErr)
			}
			// Everything launched for the run must be gone; allow a little
			// slack for runtime housekeeping goroutines.
			if after := settleGoroutines(before + 2); after > before+2 {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
			}
		})
	}
}

// TestRejoinGivesUp pins the end of a rejoin-capable party's redial
// budget, the path a party that missed the goodbye takes against a server
// that has gone: after RejoinAttempts consecutive failed reconnects it
// returns "gave up after N failed reconnects", having failed N+1 sessions
// (the first and N redials), whether the listener is closed or accepts
// and hangs up.
func TestRejoinGivesUp(t *testing.T) {
	cfg, locals, _ := smallFederation(t)
	spec, _ := data.Model("adult")
	const attempts = 3
	opts := PartyOptions{Rejoin: true, RejoinBackoff: time.Millisecond, RejoinBackoffMax: 2 * time.Millisecond, RejoinAttempts: attempts}
	want := fmt.Sprintf("gave up after %d failed reconnects", attempts)
	dial := func(t *testing.T, addr string) {
		t.Helper()
		if err := DialPartyOpts(addr, 0, locals[0], spec, cfg, PartySeed(cfg.Seed, 0), opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("party returned %v, want %q", err, want)
		}
	}
	t.Run("closed listener", func(t *testing.T) {
		ln := mustListen(t)
		addr := ln.Addr()
		ln.Close()
		dial(t, addr)
	})
	t.Run("hang-up listener", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var sessions atomic.Int32
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				sessions.Add(1)
				c.Close()
			}
		}()
		dial(t, l.Addr().String())
		l.Close()
		<-done
		if n := sessions.Load(); n != attempts+1 {
			t.Fatalf("party dialed %d sessions, want %d: the first and %d redials", n, attempts+1, attempts)
		}
	})
}
