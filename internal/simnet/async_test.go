package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// assertAsyncInvariants checks what every clean buffered-async run must
// satisfy, whatever the scheduling was: one metrics entry per generation,
// exactly buffer folds per flush, and a finite model.
func assertAsyncInvariants(t *testing.T, res *fl.Result, cfg fl.Config, parties int) {
	t.Helper()
	if res.Async == nil {
		t.Fatal("async run reported no AsyncStats")
	}
	if len(res.Curve) != cfg.Rounds {
		t.Fatalf("completed %d/%d generations", len(res.Curve), cfg.Rounds)
	}
	buffer := cfg.AsyncBuffer
	if buffer > parties {
		buffer = parties
	}
	if want := cfg.Rounds * buffer; res.Async.Folds != want {
		t.Fatalf("folds %d, want %d (%d generations x buffer %d)",
			res.Async.Folds, want, cfg.Rounds, buffer)
	}
	if res.Async.MeanStaleness < 0 || res.Async.MaxStaleness < 0 {
		t.Fatalf("negative staleness: mean %v max %d", res.Async.MeanStaleness, res.Async.MaxStaleness)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v", i, v)
		}
	}
}

// TestAsyncRunLocalAllAlgorithms runs the buffered-async mode over
// in-memory pipes for every algorithm: the barrier-free protocol must
// complete its generation schedule with the exact fold accounting and a
// finite model for each aggregation rule (SCAFFOLD's two-vector streams
// and control fold included).
func TestAsyncRunLocalAllAlgorithms(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 3
	cfg.AsyncBuffer = 2
	cfg.ChunkSize = 256
	cfg.Mu = 0.01
	spec, _ := data.Model("adult")
	for _, alg := range fl.ExtendedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			c := cfg
			c.Algorithm = alg
			res, err := RunLocal(c, spec, locals, test)
			if err != nil {
				t.Fatal(err)
			}
			assertAsyncInvariants(t, res, c, len(locals))
		})
	}
}

// TestAsyncMonolithicRunLocal is the async ChunkSize 0 run: every update
// and every broadcast travels as one frame per vector through the same
// reader and frame cache as any other size. The federation must still
// learn.
func TestAsyncMonolithicRunLocal(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 4
	cfg.AsyncBuffer = 2
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	assertAsyncInvariants(t, res, cfg, len(locals))
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("async federation failed to learn: accuracy %v", res.FinalAccuracy)
	}
}

// runAsyncTCP runs a buffered-async federation over loopback TCP, every
// party dialing with rejoin enabled and an optional per-party fault plan.
// Party errors are returned alongside the server result; with drop chaos
// the tail redials may legitimately fail, so callers decide how strict to
// be.
func runAsyncTCP(t *testing.T, cfg fl.Config, locals []*data.Dataset, test *data.Dataset, planFor func(i int) *FaultPlan) (*fl.Result, []error) {
	t.Helper()
	spec, _ := data.Model("adult")
	opts := ServerOptions{RoundTimeout: 20 * time.Second, RejoinGrace: 300 * time.Millisecond}
	res, partyErrs, err := RunLoopback(cfg, spec, locals, test, opts, func(i int) PartyOptions {
		po := soakRejoin
		po.Faults = planFor(i)
		return po
	})
	if err != nil {
		t.Fatalf("async federation aborted: %v", err)
	}
	return res, partyErrs
}

// TestAsyncTCPStraggler is the pipelining payoff test shape: a quarter of
// the parties dial through a per-frame latency plan, and the buffered
// server — folding the fast parties' updates as they land instead of
// barriering the round on the slowest stream — must still complete the
// full generation schedule with clean party exits (latency faults never
// break a connection).
func TestAsyncTCPStraggler(t *testing.T) {
	const parties = 8
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.Scaffold, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 512, AsyncBuffer: 4,
	}
	slow := &FaultPlan{Seed: 17, Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond}
	res, partyErrs := runAsyncTCP(t, cfg, locals, test, func(i int) *FaultPlan {
		if i < parties/4 {
			return slow
		}
		return nil
	})
	for i, err := range partyErrs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	assertAsyncInvariants(t, res, cfg, parties)
}

// TestAsyncSoakDropRejoin is the async -race soak: 48 parties (12 in
// -short) over loopback TCP under connection-killing chaos, every party
// rejoining with fast backoff. The barrier-free server — senders,
// receivers, evictions, rejoin installs and the dedup filter all running
// concurrently — must complete the generation schedule no matter how the
// drops land.
func TestAsyncSoakDropRejoin(t *testing.T) {
	parties := 48
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
		Algorithm: fl.Scaffold, Rounds: 3, LocalEpochs: 1, BatchSize: 16,
		LR: 0.05, Seed: 7, ChunkSize: 512, AsyncBuffer: parties / 4,
	}
	plan := &FaultPlan{Seed: 99, DropProb: 0.01, Grace: 1}
	// Party errors are part of the chaos (a party cut loose at the very
	// end may exhaust its redials against a finished server); the
	// server-side result is the oracle.
	res, _ := runAsyncTCP(t, cfg, locals, test, func(int) *FaultPlan { return plan })
	if len(res.Curve) != cfg.Rounds {
		t.Fatalf("completed %d/%d generations", len(res.Curve), cfg.Rounds)
	}
	if res.Async == nil || res.Async.Folds < cfg.Rounds*cfg.AsyncBuffer {
		t.Fatalf("async stats missing or short: %+v", res.Async)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v", i, v)
		}
	}
}

// TestPipelinedDownlinkBitwiseAllAlgorithms pins that jittered TCP equals
// pipes bitwise for all six algorithms: the same federation over real TCP,
// every frame in both directions delayed by a per-party latency/jitter
// fault stream, must produce the in-process reference's final state and
// per-round losses exactly. Timing faults reorder arrivals across parties
// but never the math.
func TestPipelinedDownlinkBitwiseAllAlgorithms(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 300, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	plan := &FaultPlan{Seed: 43, Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Grace: 1}
	for _, alg := range fl.ExtendedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			cfg := fl.Config{
				Algorithm: alg, Rounds: 2, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Mu: 0.01, Seed: 5, ChunkSize: 256,
			}
			ref, err := RunLocal(cfg, spec, locals, test)
			if err != nil {
				t.Fatal(err)
			}

			res := mustLoopback(t, cfg, spec, locals, test, ServerOptions{RoundTimeout: 20 * time.Second},
				func(int) PartyOptions { return PartyOptions{Faults: plan} })
			if len(res.FinalState) != len(ref.FinalState) {
				t.Fatalf("state length %d, want %d", len(res.FinalState), len(ref.FinalState))
			}
			for i := range ref.FinalState {
				if res.FinalState[i] != ref.FinalState[i] {
					t.Fatalf("state[%d]: tcp %v vs pipes %v", i, res.FinalState[i], ref.FinalState[i])
				}
			}
			for r := range ref.Curve {
				if res.Curve[r].TrainLoss != ref.Curve[r].TrainLoss {
					t.Fatalf("round %d: loss tcp %v vs pipes %v", r, res.Curve[r].TrainLoss, ref.Curve[r].TrainLoss)
				}
			}
		})
	}
}

// TestFoldAheadStragglerIndependence is the regression test for the
// serial straggler drain: with fold-ahead staging, one slow party delays
// the fold by only its own stream. Three scripted parties stream chunked
// replies over unbuffered pipes, where a frame is sent only once it is
// read; the first sampled party withholds its entire reply while the other
// two must be able to push their complete streams through — under a
// serial drain their sends would block behind the straggler.
func TestFoldAheadStragglerIndependence(t *testing.T) {
	_, test, err := data.Load("adult", data.Config{TrainN: 60, TestN: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 64,
	}
	cfg, err = cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")

	const parties = 3
	const partyN = 100
	tau := fl.PredictTau(cfg, partyN)
	fed := pipeFed(t, cfg, spec, test, parties, ServerOptions{})
	release := make(chan struct{})
	sent := make(chan int, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := fed.connect()
			if err != nil {
				t.Errorf("party %d dial: %v", i, err)
				return
			}
			hello, err := Marshal(HelloMsg{ID: i, N: partyN, LabelDist: []float64{0.5, 0.5}})
			if err != nil {
				t.Errorf("party %d hello marshal: %v", i, err)
				return
			}
			if err := conn.Send(hello); err != nil {
				t.Errorf("party %d hello: %v", i, err)
				return
			}
			g, ok := recvBroadcast(conn)
			if !ok {
				t.Errorf("party %d: no broadcast", i)
				return
			}
			if i == 0 {
				<-release // the straggler: withhold the entire reply
			}
			if err := sendFrames(conn, updateFrames(g, partyN, tau, 0)); err != nil {
				t.Errorf("party %d uplink: %v", i, err)
				return
			}
			sent <- i
			// Drain until the server's shutdown/close so the teardown
			// broadcast is always deliverable.
			for {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}(i)
	}

	type serveResult struct {
		res *fl.Result
		err error
	}
	resCh := make(chan serveResult, 1)
	go func() {
		res, err := fed.serve()
		resCh <- serveResult{res, err}
	}()

	// Both non-stragglers must complete their entire uplink while party 0
	// still withholds its reply.
	for k := 0; k < 2; k++ {
		select {
		case id := <-sent:
			if id == 0 {
				t.Fatal("straggler reported completion before release")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("fast parties blocked behind the straggler: fold-ahead staging regressed to the serial drain")
		}
	}
	close(release)

	sr := <-resCh
	wg.Wait()
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if len(sr.res.Curve) != cfg.Rounds {
		t.Fatalf("completed %d/%d rounds", len(sr.res.Curve), cfg.Rounds)
	}
	for _, m := range sr.res.Curve {
		if len(m.Dropped) != 0 {
			t.Fatalf("round %d dropped %v", m.Round, m.Dropped)
		}
	}
}

// deadOnArrival is a server end that reports, on installed, a ResyncMsg
// it failed to deliver: the answer to a rejoin whose party hung up once its
// hello was read, so the scheduler that installs it leaves the party
// missing.
type deadOnArrival struct {
	Conn
	installed chan<- struct{}
}

func (d *deadOnArrival) Send(b []byte) error {
	err := d.Conn.Send(b)
	if err != nil && b[0] == msgResync {
		select {
		case d.installed <- struct{}{}:
		default:
		}
	}
	return err
}

// TestQuorumBelowMinParties runs the one quorum rule under both
// schedulers. Three scripted parties hello; party 2 reads one downlink
// frame and vanishes, and the survivors answer their first broadcast.
//
//   - Without a rejoin the survivors then only drain, and a federation
//     below Config.MinParties — but not dead — must end with the typed
//     *fl.QuorumError once QuorumWait is spent: under sync at round 1,
//     which cannot start, under async while no generation can complete.
//   - With a rejoin, party 2 comes back while QuorumWait is minutes long
//     and the survivors answer again once it is in. A rejoin that is
//     installed dead comes first, so the real one arrives while the
//     scheduler is already waiting: the run completes only because the
//     rejoin wakes that wait.
func TestQuorumBelowMinParties(t *testing.T) {
	_, test, err := data.Load("adult", data.Config{TrainN: 60, TestN: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	for _, row := range []struct {
		name   string
		async  int
		rejoin bool
	}{{"sync", 0, false}, {"async", 2, false}, {"sync rejoin", 0, true}, {"async rejoin", 2, true}} {
		t.Run(row.name, func(t *testing.T) {
			cfg := fl.Config{
				Algorithm: fl.FedAvg, Rounds: 5, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Seed: 5, ChunkSize: 64, AsyncBuffer: row.async,
				MinParties: 3, QuorumWait: 50 * time.Millisecond,
			}
			if row.rejoin {
				cfg.QuorumWait = 10 * time.Minute
			}
			cfg, err := cfg.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			const parties, deserter = 3, 2
			hello := func(conn Conn, id int, rejoin bool) error {
				b, err := Marshal(HelloMsg{ID: id, N: 100, LabelDist: []float64{0.5, 0.5}, Rejoin: rejoin})
				if err == nil {
					err = conn.Send(b)
				}
				return err
			}
			// answer serves a scripted party from its first broadcast on:
			// it answers broadcast n with a zero update when reply(n) says
			// so, drains it otherwise, and closes its end on the server's
			// goodbye.
			answer := func(conn Conn, reply func(n int) bool) {
				defer conn.Close()
				for n := 0; ; n++ {
					g, ok := recvBroadcast(conn)
					if !ok {
						return
					}
					if reply(n) {
						if err := sendFrames(conn, updateFrames(g, 100, fl.PredictTau(cfg, 100), 0)); err != nil {
							return
						}
					}
				}
			}
			var (
				evictOnce sync.Once
				evicted   = make(chan struct{})
				rejoined  = make(chan struct{})
				installed = make(chan struct{}, 1)
				refused   = make(chan error, 1)
			)
			fed := pipeFed(t, cfg, spec, test, parties, ServerOptions{
				Events: func(e Event) {
					switch {
					case (e.Kind == Suspected || e.Kind == Evicted) && e.Party == deserter:
						evictOnce.Do(func() { close(evicted) })
					case e.Kind == Refused:
						// Every hello here is admitted, the dead rejoin's too.
						select {
						case refused <- e.Err:
						default:
						}
					}
				}})
			var wg sync.WaitGroup
			for i := 0; i < parties; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					conn, err := fed.connect()
					if err != nil {
						t.Errorf("party %d dial: %v", i, err)
						return
					}
					if err := hello(conn, i, false); err != nil {
						t.Errorf("party %d hello: %v", i, err)
						return
					}
					if i != deserter {
						answer(conn, func(n int) bool {
							if n == 1 && row.rejoin {
								<-rejoined
							}
							return n == 0 || row.rejoin
						})
						return
					}
					_, _ = conn.Recv()
					_ = conn.Close()
					if !row.rejoin {
						return
					}
					<-evicted
					dead, err := fed.connect()
					if err == nil {
						err = hello(dead, deserter, true)
					}
					if err != nil {
						t.Errorf("dead rejoin hello: %v", err)
						return
					}
					_ = dead.Close()
					<-installed
					p, err := fed.connect()
					if err == nil {
						err = hello(p, deserter, true)
					}
					if err != nil {
						t.Errorf("rejoin hello: %v", err)
						return
					}
					if raw, err := p.Recv(); err != nil || raw[0] != msgResync {
						t.Errorf("rejoin: want a ResyncMsg, got %v, %v", raw, err)
						return
					}
					close(rejoined)
					answer(p, func(int) bool { return true })
				}(i)
			}
			start := time.Now()
			fed.wrap = func(c Conn) Conn { return &deadOnArrival{Conn: c, installed: installed} }
			var (
				res      *fl.Result
				serveErr error
				served   = make(chan struct{})
			)
			go func() {
				defer close(served)
				res, serveErr = fed.serve()
			}()
			select {
			case <-served:
			case err := <-refused:
				// Without the rejoin the run would wait out QuorumWait.
				t.Fatalf("hello refused: %v", err)
			}
			elapsed := time.Since(start)
			wg.Wait()
			if row.rejoin {
				if serveErr != nil {
					t.Fatal(serveErr)
				}
				if len(res.Curve) != cfg.Rounds {
					t.Fatalf("completed %d/%d rounds", len(res.Curve), cfg.Rounds)
				}
				if row.async == 0 {
					// Round 1 waited for the rejoin, and says so; every
					// later round ran at full strength.
					if q := res.Curve[1].Quorum; q == nil || *q != (fl.QuorumError{Round: 1, Live: 2, Min: 3, Attempts: 1}) {
						t.Fatalf("round 1 quorum record %+v, want the wait for party %d", q, deserter)
					}
					for _, m := range res.Curve[2:] {
						if m.Quorum != nil || len(m.Sampled) != parties || len(m.Dropped) != 0 {
							t.Fatalf("round %d after the rejoin: sampled %v dropped %v quorum %+v", m.Round, m.Sampled, m.Dropped, m.Quorum)
						}
					}
				}
				return
			}
			if serveErr == nil {
				t.Fatal("half-dead federation below MinParties completed without error")
			}
			var qe *fl.QuorumError
			if !errors.As(serveErr, &qe) {
				t.Fatalf("error %v (%T), want a *fl.QuorumError", serveErr, serveErr)
			}
			// One shortfall, waited out whole: it is one attempt long, and
			// the run lasted at least its budget.
			if qe.Live != 2 || qe.Min != 3 || qe.Attempts != 1 {
				t.Fatalf("QuorumError %+v, want live 2, min 3, one attempt", qe)
			}
			if row.async == 0 && qe.Round != 1 {
				t.Fatalf("sync QuorumError at round %d, want round 1", qe.Round)
			}
			if elapsed < cfg.QuorumWait {
				t.Fatalf("run ended after %v, before its quorum wait %v was spent", elapsed, cfg.QuorumWait)
			}
		})
	}
}

// TestAsyncTCPFairnessFastParty runs the fairness cap end to end: one
// party dials clean while the other three push every frame through a
// per-frame latency plan, making party 0 roughly an order of magnitude
// faster per round trip. With 4 live parties and a 2-deep buffer the
// fair-share cap is 1, so no generation may fold the same party twice —
// the monopoly the cap exists to prevent — and the run must still meet
// the exact fold accounting.
func TestAsyncTCPFairnessFastParty(t *testing.T) {
	const parties = 4
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 512, AsyncBuffer: 2,
	}
	slow := &FaultPlan{Seed: 23, Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond}
	res, partyErrs := runAsyncTCP(t, cfg, locals, test, func(i int) *FaultPlan {
		if i == 0 {
			return nil
		}
		return slow
	})
	for i, err := range partyErrs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	assertAsyncInvariants(t, res, cfg, parties)
	for _, m := range res.Curve {
		seen := map[int]int{}
		for _, id := range m.Sampled {
			if seen[id]++; seen[id] > 1 {
				t.Fatalf("generation %d folded party %d twice: %v — fair-share cap regressed", m.Round, id, m.Sampled)
			}
		}
	}
	t.Logf("fairness drops under a 10x-fast party: %d", res.Async.FairnessDropped)
}

// TestAsyncTeardownBoundsOpenConn runs async federations whose parties
// keep their ends open after the goodbye. Once the run is over,
// RoundTimeout bounds each receiver's wait for a stream that never comes,
// so the teardown ends on its own instead of waiting for the parties to
// hang up. The test bounds its own wait and closes the party ends only
// after it, so a teardown that hangs fails here instead of stalling the
// suite.
func TestAsyncTeardownBoundsOpenConn(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.AsyncBuffer = 1
	for _, tcp := range []bool{false, true} {
		name, build := "pipe", pipeFed
		if tcp {
			name, build = "tcp", tcpFed
		}
		t.Run(name, func(t *testing.T) {
			fed := build(t, cfg, spec, test, len(locals), ServerOptions{RoundTimeout: 200 * time.Millisecond})
			var mu sync.Mutex
			var ends []Conn
			hangUp := func() {
				mu.Lock()
				defer mu.Unlock()
				for _, c := range ends {
					_ = c.Close()
				}
			}
			type outcome struct {
				partyErrs []error
				err       error
			}
			out := make(chan outcome, 1)
			go func() {
				_, partyErrs, err := fed.federate(len(locals), func(i int) error {
					conn, err := fed.connect()
					if err != nil {
						return err
					}
					mu.Lock()
					ends = append(ends, conn)
					mu.Unlock()
					return serveParty(conn, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				})
				out <- outcome{partyErrs, err}
			}()
			var o outcome
			select {
			case o = <-out:
			case <-time.After(10 * time.Second):
				t.Error("10 s on, the teardown still waits for parties that keep their ends open")
				hangUp()
				o = <-out
			}
			hangUp()
			if o.err != nil {
				t.Fatal(o.err)
			}
			reportErrs(t, o.partyErrs)
		})
	}
}

// TestAsyncPartyPullsNextGeneration pins the async addressee rule on the
// events of an 8-party federation, per conn: at each Shipped, the conn has
// Answered at least as many generations as it was Shipped before — a conn
// is never shipped a generation while one it was shipped before is
// unanswered — at a buffer of 1 (a generation per fold, the most
// run-ahead) and of K/4, over pipes and TCP. In the rejoin row party 2's
// first conn dies at the first generation it is shipped after answering,
// and the other parties' replies wait until its fresh conn is shipped a
// generation: counted per conn, the fresh conn owes nothing and is shipped
// the newest generation — the one it was Resynced at — at once.
func TestAsyncPartyPullsNextGeneration(t *testing.T) {
	const parties, flapper = 8, 2
	train, test, err := data.Load("adult", data.Config{TrainN: 800, TestN: 100, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	for _, row := range []struct {
		name   string
		tcp    bool
		buffer int
		rejoin bool
	}{
		{name: "pipe/buffer-1", buffer: 1},
		{name: "pipe/buffer-K/4", buffer: parties / 4},
		{name: "tcp/buffer-1", tcp: true, buffer: 1},
		{name: "tcp/buffer-K/4", tcp: true, buffer: parties / 4},
		{name: "pipe/rejoin", buffer: 1, rejoin: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := fl.Config{Algorithm: fl.FedAvg, Rounds: 16, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Seed: 5, ChunkSize: 256, AsyncBuffer: row.buffer}
			build := pipeFed
			if row.tcp {
				build = tcpFed
			}
			type connID struct{ party, ord int }
			var (
				mu                     sync.Mutex
				shipped, answered      = map[connID]int{}, map[connID]int{}
				rejoins                int
				resynced, firstShipped = -1, -1 // the flapper's fresh conn
				fresh, release         = make(chan struct{}), make(chan struct{})
			)
			fed := build(t, cfg, spec, test, parties, ServerOptions{Events: func(e Event) {
				mu.Lock()
				defer mu.Unlock()
				c := connID{e.Party, e.Conn}
				switch e.Kind {
				case Resynced:
					rejoins, resynced = rejoins+1, e.Gen
				case Answered:
					answered[c]++
				case Shipped:
					if answered[c] < shipped[c] {
						t.Errorf("party %d conn %d shipped generation %d while %d of its %d were unanswered",
							e.Party, e.Conn, e.Gen, shipped[c]-answered[c], shipped[c])
					}
					if shipped[c]++; c == (connID{flapper, 2}) && shipped[c] == 1 {
						firstShipped = e.Gen
						close(fresh)
					}
				}
			}})
			var accepted atomic.Int32
			fed.wrap = func(c Conn) Conn {
				if row.rejoin && accepted.Add(1) <= parties {
					// The first conns: the flapper's flaps once it answered.
					c = &flapConn{Conn: c, id: flapper}
				}
				return c
			}
			if row.rejoin {
				go func() {
					select {
					case <-fresh:
					case <-time.After(10 * time.Second):
						t.Error("10 s on, the rejoined conn has not been shipped a generation")
					}
					close(release)
				}()
			} else {
				close(release)
			}
			_, partyErrs, err := fed.federate(parties, func(i int) error {
				conn, err := fed.connect()
				if err != nil {
					return err
				}
				if i != flapper || !row.rejoin {
					defer conn.Close()
					if row.rejoin {
						conn = &heldConn{Conn: conn, release: release}
					}
					return serveParty(conn, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				}
				s, err := newPartySession(i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				if err != nil {
					return err
				}
				for rejoining := false; ; rejoining = true {
					err := s.run(conn, "", rejoining, 0)
					_ = conn.Close()
					if err == nil {
						return nil
					}
					if conn, err = fed.connect(); err != nil {
						return err
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			reportErrs(t, partyErrs)
			if !row.rejoin {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if rejoins != 1 {
				t.Fatalf("%d rejoins, want party %d's one", rejoins, flapper)
			}
			if resynced < 0 || firstShipped != resynced {
				t.Errorf("the rejoined conn was resynced at generation %d and first shipped generation %d, want the newest at once",
					resynced, firstShipped)
			}
		})
	}
}

// flushHook is an fl.AsyncTransport whose RunAsync the test scripts; the
// coordinator reads its byte meter at every flush, inside Fold, and calls
// onFlush there when it is set.
type flushHook struct {
	run     func(*fl.AsyncCoordinator) error
	onFlush func()
}

func (h flushHook) PartyMeta(int) fl.UpdateMeta           { return fl.UpdateMeta{N: 10} }
func (h flushHook) RunAsync(c *fl.AsyncCoordinator) error { return h.run(c) }
func (h flushHook) RoundBytes() int64 {
	if h.onFlush != nil {
		h.onFlush()
	}
	return 0
}

// scriptAsync runs f's server side under a script in place of the conn
// loop: the engine's buffered-async run hands the script the coordinator,
// and the script plays the receivers and senders itself.
func scriptAsync(t *testing.T, f *Federation, h flushHook) {
	t.Helper()
	n := len(f.table.members)
	model := nn.Build(f.Spec, rng.New(1))
	server := fl.NewServer(f.Cfg, model.State(), model.ParamCount(), n)
	engine, err := fl.NewEngine(f.Cfg, server, fl.NewEvaluator(f.Spec, f.Test), n, rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	f.stateLen, f.total = len(server.State()), len(server.State())+len(server.Control())
	if _, err := engine.RunAsync(h); err != nil {
		t.Fatal(err)
	}
}

// scriptedUpdate is a complete update stream, every element v, trained
// against gen, as a receiver hands it to the fold: in a buffer from the
// shared pool, which the fold returns with Put (Federation.release).
func scriptedUpdate(f *Federation, gen int, v float64) stagedUpdate {
	buf := tensor.Shared.GetRaw(tensor.Float64, f.total)
	for i := range buf.Data() {
		buf.Data()[i] = v
	}
	f.streamsOut.Add(1)
	return stagedUpdate{round: gen, buf: buf, trailer: fl.Update{N: 10, Tau: 1}}
}

// TestNoGenerationPastTheLast lands the final flush between another
// receiver's flush and that receiver's publication of the generation it
// minted: the receiver must publish nothing, since the newest generation
// is now the final one, which no party needs to train against. The
// schedule is fixed, not raced: receiver A's first flush takes the party
// table's lock, so after its fold A stops at SCAFFOLD's control
// bookkeeping, before it snapshots; the test then folds the final update
// straight into the coordinator — the other receiver's fold — and lets A
// go.
func TestNoGenerationPastTheLast(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.Algorithm, cfg.AsyncBuffer, cfg.Rounds = fl.Scaffold, 1, 2
	fed := pipeFed(t, cfg, spec, test, len(locals), ServerOptions{})
	defer fed.ln.Close()
	f := fed.Federation
	var once sync.Once
	parked := make(chan struct{})
	scriptAsync(t, f, flushHook{
		onFlush: func() {
			once.Do(func() {
				f.table.mu.Lock() // A's, released by the test
				close(parked)
			})
		},
		run: func(coord *fl.AsyncCoordinator) error {
			folded := make(chan bool)
			go func() { folded <- asyncFold{f, coord}.fold(member{id: 0}, scriptedUpdate(f, 0, 0)) }()
			select {
			case <-parked:
			case ok := <-folded:
				return fmt.Errorf("receiver A's fold (ok %v) did not flush", ok)
			}
			final := fl.Update{N: 10, Tau: 1, Delta: make([]float64, f.stateLen), DeltaC: make([]float64, f.total-f.stateLen)}
			_, done, err := coord.Fold(1, final, 0)
			f.table.mu.Unlock()
			if ok := <-folded; !ok || err != nil || !done {
				return fmt.Errorf("receiver A's fold ok %v; the final fold: done %v, err %v", ok, done, err)
			}
			return nil
		},
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bf != nil {
		t.Fatalf("generation %d of %d published after the run completed", f.gen, f.Cfg.Rounds)
	}
}

// TestClaimedSnapshotOutlivesRecycling holds a sender's claim on an async
// generation, as a sender parked mid-ship does, while three more
// generations recycle frame caches through the free list, and only then
// encodes the generation's f64 frames: lazily, from the snapshot its
// cache owns. They must still carry the claimed generation, re-encoding
// to exactly the int8 frames encoded when it was claimed. In a run every
// sender encodes the moment it claims, so a snapshot refilled while its
// cache is still referenced shows there only when the two race; here the
// late encode is fixed, and such a cache fails every time.
func TestClaimedSnapshotOutlivesRecycling(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.AsyncBuffer, cfg.Codec, cfg.ChunkSize, cfg.Rounds = 1, fl.CodecInt8, 64, 8
	fed := pipeFed(t, cfg, spec, test, len(locals), ServerOptions{})
	defer fed.ln.Close()
	f := fed.Federation
	f.table.members[0].conn, f.table.members[0].state = NewCountingConn(nil), partyAlive
	scriptAsync(t, f, flushHook{run: func(coord *fl.AsyncCoordinator) error {
		k := 0
		fold := func() {
			gen := coord.Generation()
			if k++; !(asyncFold{f, coord}).fold(member{id: k % len(locals)}, scriptedUpdate(f, gen, float64(k))) {
				t.Fatalf("fold %d refused", k)
			}
		}
		fold()
		_, held, ok := f.claim(f.table.get(0), 0, 0)
		if !ok {
			t.Fatal("no generation to claim")
		}
		atClaim, err := held.frames(wireCodecInt8)
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			fold()
		}
		late, err := held.frames(wireCodecF64)
		if err != nil {
			t.Fatal(err)
		}
		f.update(func() { f.drop(held) })
		if m, _, _ := parseGlobalChunk(late[0]); m.Round != 1 {
			t.Errorf("the claimed cache encoded generation %d, want 1", m.Round)
		}
		if !slices.EqualFunc(reencode(t, late, wireCodecInt8), atClaim, bytes.Equal) {
			t.Error("generation 1's f64 frames, encoded after three more generations, are not the snapshot it was claimed with")
		}
		for !coord.Done() {
			fold()
		}
		return nil
	}})
}
