package simnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestCodecRoundTripUpdateChunk(t *testing.T) {
	in := UpdateChunkMsg{Round: 9, Offset: 128, Total: 131, N: 55, Tau: 4,
		Last: true, TrainLoss: 0.75, Chunk: []float64{1.5, -2, 3}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(UpdateChunkMsg)
	if got.Round != 9 || got.Offset != 128 || got.Total != 131 || got.N != 55 ||
		got.Tau != 4 || !got.Last || got.TrainLoss != 0.75 || len(got.Chunk) != 3 || got.Chunk[1] != -2 {
		t.Fatalf("round trip: %+v", got)
	}
	// The in-place path parses the header alone and decodes the payload
	// wherever the caller points it.
	hdr, p, err := parseUpdateChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Chunk != nil || hdr.Offset != 128 || p.count != 3 {
		t.Fatalf("header-only parse: %+v count %d", hdr, p.count)
	}
	buf := make([]float64, 8)
	if err := p.decodeInto(buf[2:5]); err != nil {
		t.Fatal(err)
	}
	if buf[2] != 1.5 || buf[4] != 3 || buf[5] != 0 {
		t.Fatalf("in-place decode: %v", buf)
	}
	if _, _, err := parseUpdateChunk([]byte{msgGlobalChunk, 0}); err == nil {
		t.Fatal("parseUpdateChunk should reject non-update frames")
	}
}

func TestCodecRoundTripHelloToken(t *testing.T) {
	in := HelloMsg{ID: 3, N: 200, Token: "s3cr3t", LabelDist: []float64{0.25, 0.75}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(HelloMsg)
	if got.ID != 3 || got.N != 200 || got.Token != "s3cr3t" || len(got.LabelDist) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	long := make([]byte, maxTokenLen+1)
	if _, err := Marshal(HelloMsg{Token: string(long)}); err == nil {
		t.Fatal("oversized token should fail to marshal")
	}
}

func TestCodecChunkTruncations(t *testing.T) {
	msg, err := Marshal(UpdateChunkMsg{Round: 1, Offset: 2, Total: 5, N: 4, Tau: 3,
		TrainLoss: 0.5, Chunk: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(msg); cut++ {
		if _, err := Unmarshal(msg[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(msg))
		}
	}
}

// jitterConn delays every send by a pseudo-random few hundred
// microseconds, so concurrent parties' chunk frames interleave thoroughly
// on the server even when local training is fast.
type jitterConn struct {
	Conn
	r *rng.RNG
}

func (j *jitterConn) Send(b []byte) error {
	time.Sleep(time.Duration(j.r.Intn(400)) * time.Microsecond)
	return j.Conn.Send(b)
}

// TestChunkedTCPOutOfOrderMatchesPipes runs the same chunked federation
// twice — over in-memory pipes and over TCP with per-party send jitter
// forcing heavy cross-party interleaving of chunk frames — and demands
// bitwise-identical final states. The fold must be deterministic in
// sampled order no matter how frames arrive; run with -race this is also
// the concurrency regression test for the chunked receive path.
func TestChunkedTCPOutOfOrderMatchesPipes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Algorithm = fl.Scaffold // exercises the two-vector stream
	cfg.Rounds = 3
	cfg.ChunkSize = 37 // tiny frames => many interleavings
	spec, _ := data.Model("adult")

	viaPipes, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}

	res := runChunkedTCP(t, cfg, locals, test)
	if len(res.FinalState) != len(viaPipes.FinalState) {
		t.Fatalf("state length %d vs %d", len(res.FinalState), len(viaPipes.FinalState))
	}
	for i := range viaPipes.FinalState {
		if res.FinalState[i] != viaPipes.FinalState[i] {
			t.Fatalf("state[%d]: tcp %v vs pipes %v", i, res.FinalState[i], viaPipes.FinalState[i])
		}
	}
	for r := range viaPipes.Curve {
		if res.Curve[r].TrainLoss != viaPipes.Curve[r].TrainLoss {
			t.Fatalf("round %d: loss tcp %v vs pipes %v", r, res.Curve[r].TrainLoss, viaPipes.Curve[r].TrainLoss)
		}
	}
}

// TestChunkedMatchesWholeOverPipes pins that ChunkSize picks a frame size
// and nothing else: the same federation at ChunkSize 0 (one frame per
// vector) and at ChunkSize N must produce bitwise-identical states.
func TestChunkedMatchesWholeOverPipes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 3
	spec, _ := data.Model("adult")
	whole, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChunkSize = 101
	chunked, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole.FinalState {
		if whole.FinalState[i] != chunked.FinalState[i] {
			t.Fatalf("state[%d]: whole %v vs chunked %v", i, whole.FinalState[i], chunked.FinalState[i])
		}
	}
	if chunked.TotalCommBytes <= whole.TotalCommBytes {
		t.Fatalf("chunked framing should cost slightly more wire bytes: %d vs %d",
			chunked.TotalCommBytes, whole.TotalCommBytes)
	}
}

// assertEvictedAt asserts the membership contract around a mid-round
// violation: the offender is dropped in the round that caught it, and —
// sampling being liveness-aware — excluded from every later round's
// sample instead of being re-dropped round after round.
func assertEvictedAt(t *testing.T, curve []fl.RoundMetrics, id, evictRound int) {
	t.Helper()
	found := false
	for _, d := range curve[evictRound].Dropped {
		found = found || d == id
	}
	if !found {
		t.Fatalf("round %d did not drop party %d (dropped=%v)", evictRound, id, curve[evictRound].Dropped)
	}
	for _, m := range curve[evictRound+1:] {
		for _, s := range m.Sampled {
			if s == id {
				t.Fatalf("round %d sampled party %d after its eviction", m.Round, id)
			}
		}
	}
}

// TestHandshakeHardening connects a parade of invalid clients — garbage
// hello, out-of-range ID, wrong token, duplicate ID — before and among
// the legitimate parties. Each invalid connection must be rejected on its
// own; the federation completes once the real parties arrive.
func TestHandshakeHardening(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")
	const token = "hunter2"

	ln := mustListen(t)
	ln.Token = token
	var events eventLog
	ln.Events = events.add
	addr := ln.Addr()
	garbage := []byte{0xde, 0xad, 0xbe, 0xef}
	outOfRange, _ := Marshal(HelloMsg{ID: 99, N: 10, Token: token, LabelDist: []float64{1}})
	badToken, _ := Marshal(HelloMsg{ID: 0, N: 10, Token: "wrong", LabelDist: []float64{1}})

	res, peerErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals)+1, func(i int) error {
		if i == len(locals) {
			return errors.Join(dialRaw(addr, garbage), dialRaw(addr, outOfRange), dialRaw(addr, badToken))
		}
		return DialPartyOpts(addr, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{Token: token})
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, peerErrs)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("federation accuracy %v", res.FinalAccuracy)
	}
	if rejections := events.of(Refused); len(rejections) < 3 {
		t.Fatalf("expected at least 3 rejections (garbage, range, token), got %v", rejections)
	}
}

// TestRecvLimitRejectsBeforeRead pins the pre-read frame bound: a frame
// whose length prefix exceeds the configured limit must be refused,
// as errFrameLimit, without reading (or allocating) its body.
func TestRecvLimitRejectsBeforeRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	recv := newFrameConn(a)
	recv.(*frameConn).SetRecvLimit(50)
	done := make(chan error, 1)
	go func() {
		_, err := recv.Recv()
		done <- err
	}()
	// Write only the 4-byte header declaring a frame far above the limit;
	// if Recv waited for the body this would deadlock, proving it streams
	// the allocation — rejection must come from the header alone.
	var hdr [4]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0x0f
	if _, err := b.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("oversized frame declaration was accepted")
		}
		if !errors.Is(err, errFrameLimit) {
			t.Fatalf("oversized frame refused as %v, want the receive limit's typed refusal", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not reject the oversized declaration from the header")
	}
	// Within the limit still works.
	recv2 := newFrameConn(b)
	go func() {
		if err := newFrameConn(a).(*frameConn).Send([]byte("ok")); err != nil {
			t.Error(err)
		}
	}()
	msg, err := recv2.Recv()
	if err != nil || string(msg) != "ok" {
		t.Fatalf("in-limit frame: %q %v", msg, err)
	}
}

// TestRoundTimeoutEvictsSilentParty admits a party that hellos correctly
// and then never replies to any round. With RoundTimeout set, the server
// must evict it instead of wedging the round forever.
func TestRoundTimeoutEvictsSilentParty(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	cfg.ChunkSize = 128
	spec, _ := data.Model("adult")
	ln := mustListen(t)
	// Generous against race-detector slowdowns: honest parties train in
	// tens of milliseconds; only the mute one should ever hit this.
	ln.RoundTimeout = 1500 * time.Millisecond
	addr := ln.Addr()
	const parties = 4 // 3 honest + 1 mute
	res, peerErrs, err := federateTCP(ln, parties, cfg, spec, test, parties, func(i int) error {
		if i < len(locals) {
			return DialPartyOpts(addr, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{})
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer c.Close()
		conn := newFrameConn(c)
		b, _ := Marshal(HelloMsg{ID: 3, N: 40, LabelDist: []float64{0.5, 0.5}})
		if err := conn.Send(b); err != nil {
			return err
		}
		// Read broadcasts but never reply; stop when the server closes us.
		for {
			if _, err := conn.Recv(); err != nil {
				return nil
			}
		}
	})
	if err != nil {
		t.Fatalf("federation should survive a mute party: %v", err)
	}
	reportErrs(t, peerErrs)
	assertEvictedAt(t, res.Curve, 3, 0)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
}

// TestDeadPartyEvictedNotFatal kills one party after its first-round
// reply. The federation must suspect it — no broadcast to the dead conn,
// no second reader, no abort — and complete every remaining round from
// the survivors, at a bounded frame size and at one frame per vector.
func TestDeadPartyEvictedNotFatal(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	for _, chunk := range []int{64, 0} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			cfg, err := fl.Config{Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 1, BatchSize: 32,
				LR: 0.05, Seed: 5, ChunkSize: chunk}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			const mortalN = 80
			mortalTau := fl.PredictTau(cfg, mortalN)
			res, _, evictions, err := serveWithScripted(t, cfg, spec, locals, test, mortalN, false,
				func(conn Conn, g GlobalMsg) error {
					if g.Round > 0 {
						return conn.Close() // die after round 0
					}
					// A fully valid zero-delta stream for round 0.
					return sendFrames(conn, updateFrames(g, mortalN, mortalTau, 0))
				})
			if err != nil {
				t.Fatalf("federation should survive a party death: %v", err)
			}
			if len(res.Curve) != cfg.Rounds {
				t.Fatalf("rounds: %d", len(res.Curve))
			}
			if len(res.Curve[0].Dropped) != 0 {
				t.Fatalf("round 0 dropped %v; the mortal party was still alive", res.Curve[0].Dropped)
			}
			assertEvictedAt(t, res.Curve, scriptedID, 1)
			if len(evictions) != 1 || evictions[0].Party != scriptedID || evictions[0].Kind != Suspected {
				t.Fatalf("want one suspect (rejoinable) departure of party %d, got %v", scriptedID, evictions)
			}
		})
	}
}

// TestSilentHelloTimesOut connects a client that never sends its hello:
// admission must reject it after the hello timeout instead of hanging the
// accept loop, and the federation completes once real parties connect.
func TestSilentHelloTimesOut(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")
	ln := mustListen(t)
	ln.helloTimeout = 150 * time.Millisecond
	var events eventLog
	ln.Events = events.add
	addr := ln.Addr()
	// The silent conn is dialed first, so the accept loop picks it up
	// before any party (loopback accepts are FIFO).
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	res, partyErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals), func(i int) error {
		return DialPartyOpts(addr, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
	// Hellos are read concurrently, so admission no longer waits out the
	// silent conn's timeout — that head-of-line freedom is the point. The
	// rejection is still delivered before AcceptAndRun returns: the
	// mid-hello conn is expired the moment the federation fills.
	if len(events.of(Refused)) == 0 {
		t.Fatal("the silent connection was never rejected")
	}
}

// TestEmptyPartyStratifiedNoNaN is the transport-level regression test
// for the empty-dataset weighting bug: a party with zero samples joins a
// stratified-sampling federation, its all-zero label distribution forms
// its own cluster (so it is sampled every round), and the run must
// complete with finite state — previously the weighting path could go
// NaN off the hello's N=0.
func TestEmptyPartyStratifiedNoNaN(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	empty := &data.Dataset{
		Name: "empty", FeatLen: locals[0].FeatLen,
		SampleShape: locals[0].SampleShape, NumClasses: locals[0].NumClasses,
	}
	locals = append(locals, empty)
	spec, _ := data.Model("adult")
	cfg := fl.Config{
		Algorithm: fl.FedNova, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, SampleFraction: 0.5, Sampling: fl.SampleStratified,
		ChunkSize: 128,
	}
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.FinalState {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] = %v with an empty party in the federation", i, v)
		}
	}
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
}
