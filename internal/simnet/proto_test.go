package simnet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestCodecVersionedHello(t *testing.T) {
	b, err := Marshal(HelloMsg{ID: 2, N: 10, Token: "t", LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if b[1] != protoMagic || b[2] != ProtoVersion {
		t.Fatalf("hello preamble % x, want magic 0x%02x version %d", b[:3], protoMagic, ProtoVersion)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	h := out.(HelloMsg)
	if h.Version != ProtoVersion || h.ID != 2 || h.N != 10 || h.Token != "t" {
		t.Fatalf("round trip: %+v", h)
	}

	// A wrong magic byte must be a descriptive error.
	bad := append([]byte{}, b...)
	bad[1] = 0x03
	if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic decoded as: %v", err)
	}

	// A peer whose whole supported range is ahead of this build must
	// surface as a typed VersionError carrying the peer's range, not as a
	// misaligned decode of the fields behind it.
	stale, err := Marshal(HelloMsg{ID: 2, N: 10, Version: ProtoVersion + 9, MinVersion: ProtoVersion + 9})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Unmarshal(stale)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != ProtoVersion+9 || ve.GotMin != ProtoVersion+9 {
		t.Fatalf("stale version decoded as: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(ProtoVersion+9)) || !strings.Contains(err.Error(), fmt.Sprint(ProtoVersion)) {
		t.Fatalf("version error should name both versions: %v", err)
	}

	// Every truncation — including mid-preamble — errors cleanly.
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("hello truncation at %d/%d decoded successfully", cut, len(b))
		}
	}
}

// TestVersionSkew is the one skew test of the v5 wire. Range negotiation
// survives: a future peer whose range still reaches 5 is admitted. The
// historical layouts do not: hand-built hellos exactly as a v4 and a v2
// build emit them are turned away at admission with a typed *VersionError
// naming the peer's generation — never a misaligned decode. And codec
// negotiation falls back: on an int8 server, a party whose support mask
// lacks the int8 bit is admitted and served raw float64 frames while its
// peer gets int8 ones.
func TestVersionSkew(t *testing.T) {
	admit := func(fed *Federation, hello []byte) error {
		serverSide, partySide := Pipe()
		if err := partySide.Send(hello); err != nil {
			t.Fatal(err)
		}
		return fed.greet(NewCountingConn(serverSide))
	}
	fed := pipeFed(t, fl.Config{LocalEpochs: 1, BatchSize: 32, Codec: fl.CodecInt8}, nn.ModelSpec{}, nil, 4, ServerOptions{})
	// tag, magic, version 4, min-version 2, codec mask, rejoin, ID, N,
	// empty token, empty label distribution: the v4 layout.
	v4 := []byte{msgHello, protoMagic, 4, 2, 0x0F, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	// tag, magic, version 2, rejoin, ID, N, token, distribution: the
	// pre-range v2 layout.
	v2 := []byte{msgHello, protoMagic, 2, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	for want, hello := range map[byte][]byte{4: v4, 2: v2} {
		var ve *VersionError
		if err := admit(fed, hello); !errors.As(err, &ve) || ve.Got != want {
			t.Fatalf("v%d hello at admission: %v, want a *VersionError for generation %d", want, err, want)
		}
	}
	future, err := Marshal(HelloMsg{ID: 0, N: 10, Version: ProtoVersion + 2, MinVersion: ProtoVersion, LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := admit(fed, future); err != nil {
		t.Fatalf("future peer still speaking %d rejected: %v", ProtoVersion, err)
	}
	if got := fed.table.get(0).codec; got != wireCodecInt8 {
		t.Fatalf("full-mask peer negotiated %s, want int8", codecName(got))
	}
	disjoint, err := Marshal(HelloMsg{ID: 1, N: 10, Version: ProtoVersion + 2, MinVersion: ProtoVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	var ve *VersionError
	if err := admit(fed, disjoint); !errors.As(err, &ve) || ve.GotMin != ProtoVersion+1 {
		t.Fatalf("disjoint future range: %v", err)
	}

	// The mask fallback, end to end over pipes: two scripted parties on an
	// int8 server, party 1 advertising only f64 and f32.
	_, test, err := data.Load("adult", data.Config{TrainN: 60, TestN: 60, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := fl.Config{Algorithm: fl.FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 64, Codec: fl.CodecInt8}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	const partyN = 100
	tau := fl.PredictTau(cfg, partyN)
	conns := make([]*CountingConn, 2)
	saw := make([]byte, 2) // the codec each party's broadcast arrived in
	var wg sync.WaitGroup
	for i := range conns {
		serverSide, partySide := Pipe()
		conns[i] = NewCountingConn(serverSide)
		hello := HelloMsg{ID: i, N: partyN, LabelDist: []float64{0.5, 0.5}}
		if i == 1 {
			hello.Codecs = 1<<wireCodecF64 | 1<<wireCodecF32
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			rawParty(t, &codecSpy{Conn: conn, saw: &saw[i]}, hello, func(g GlobalMsg) error {
				// The server accepts either encoding on the uplink.
				return sendFrames(conn, updateFrames(g, partyN, tau, 0))
			})
		}(i, partySide)
	}
	res, err := pipeFed(t, cfg, spec, test, 2, ServerOptions{}).servePipes(conns)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != cfg.Rounds || len(res.Curve[0].Dropped) != 0 {
		t.Fatalf("mixed-codec round: %+v", res.Curve)
	}
	if saw[0] != wireCodecInt8 || saw[1] != wireCodecF64 {
		t.Fatalf("broadcast codecs: full-mask party %s, f64/f32-only party %s; want int8 and the f64 fallback",
			codecName(saw[0]), codecName(saw[1]))
	}
}

// codecSpy records the wire codec of the last broadcast frame received.
type codecSpy struct {
	Conn
	saw *byte
}

func (c *codecSpy) Recv() ([]byte, error) {
	raw, err := c.Conn.Recv()
	if err == nil && len(raw) > 0 && raw[0] == msgGlobalChunk {
		if m, _, perr := parseGlobalChunk(raw); perr == nil {
			*c.saw = m.Codec
		}
	}
	return raw, err
}

func TestCodecRoundTripGlobalChunk(t *testing.T) {
	in := GlobalChunkMsg{Round: 5, Offset: 37, Total: 100, CtrlLen: 20,
		Budget: 3, Chunk: 37, Last: true, Payload: []float64{1.5, -2, 3}}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(GlobalChunkMsg)
	if got.Round != 5 || got.Offset != 37 || got.Total != 100 || got.CtrlLen != 20 ||
		got.Budget != 3 || got.Chunk != 37 || !got.Last ||
		len(got.Payload) != 3 || got.Payload[1] != -2 {
		t.Fatalf("round trip: %+v", got)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(b))
		}
	}
	// The in-place path decodes the payload wherever the caller points it.
	_, p, err := parseGlobalChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 8)
	if err := p.decodeInto(buf[1:4]); err != nil {
		t.Fatal(err)
	}
	if buf[1] != 1.5 || buf[3] != 3 || buf[4] != 0 {
		t.Fatalf("in-place decode: %v", buf)
	}
	if _, _, err := parseGlobalChunk([]byte{msgUpdateChunk, 0}); err == nil {
		t.Fatal("parseGlobalChunk should reject non-broadcast frames")
	}
}

// TestVersionSkewRejectedAtAdmission connects peers speaking a stale
// protocol version, the wrong magic, and a hello truncated inside the
// version preamble. Each must be turned away with a clean, descriptive
// OnReject reason — never a misaligned decode or a hang — while the
// federation keeps waiting and completes once the real parties arrive.
func TestVersionSkewRejectedAtAdmission(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")

	ln := mustListen(t)
	var mu sync.Mutex
	var rejections []error
	ln.OnReject = func(err error) {
		mu.Lock()
		rejections = append(rejections, err)
		mu.Unlock()
	}
	addr := ln.Addr()
	stale, err := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}, Version: ProtoVersion + 41, MinVersion: ProtoVersion + 41})
	if err != nil {
		t.Fatal(err)
	}
	good, err := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte{}, good...)
	badMagic[1] = 0x00
	truncated := good[:2] // tag + magic, version byte missing

	res, peerErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals)+1, func(i int) error {
		if i == len(locals) {
			return errors.Join(dialRaw(addr, stale), dialRaw(addr, badMagic), dialRaw(addr, truncated))
		}
		return DialPartyOpts(addr, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, peerErrs)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("federation accuracy %v", res.FinalAccuracy)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rejections) < 3 {
		t.Fatalf("expected 3 rejections (stale, magic, truncated), got %v", rejections)
	}
	var sawVersion, sawMagic, sawTruncated bool
	for _, rej := range rejections {
		var ve *VersionError
		if errors.As(rej, &ve) {
			if ve.Got != ProtoVersion+41 {
				t.Fatalf("version rejection carries peer version %d, want %d", ve.Got, ProtoVersion+41)
			}
			sawVersion = true
		}
		if strings.Contains(rej.Error(), "magic") {
			sawMagic = true
		}
		if strings.Contains(rej.Error(), "preamble") {
			sawTruncated = true
		}
	}
	if !sawVersion || !sawMagic || !sawTruncated {
		t.Fatalf("rejection reasons not descriptive (version=%v magic=%v truncated=%v): %v",
			sawVersion, sawMagic, sawTruncated, rejections)
	}
}

// TestConcurrentAdmissionBoundedStall is the regression test for the
// head-of-line admission fix: k silent connections (plus a couple sending
// garbage) arrive ahead of the legitimate parties, and the federation
// must still admit and complete within a small multiple of ONE
// HelloTimeout. The pre-fix serial hello reads cost k timeouts before the
// first legitimate hello was even read.
func TestConcurrentAdmissionBoundedStall(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	cfg := fl.Config{Algorithm: fl.FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, ChunkSize: 128}

	const helloTimeout = 750 * time.Millisecond
	const silent = 4
	ln := mustListen(t)
	ln.HelloTimeout = helloTimeout
	var mu sync.Mutex
	rejected := 0
	ln.OnReject = func(error) {
		mu.Lock()
		rejected++
		mu.Unlock()
	}
	addr := ln.Addr()

	// The lurkers connect first — before the accept loop even runs, so the
	// legitimate parties genuinely arrive behind them — and say nothing:
	// each must burn its own timeout without queueing anyone behind it.
	for i := 0; i < silent; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	start := time.Now()
	res, peerErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals)+2, func(i int) error {
		if i < len(locals) {
			return DialPartyOpts(addr, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{})
		}
		return dialRaw(addr, []byte{0xde, 0xad, 0xbe, 0xef})
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, peerErrs)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
	// Serial hello reads would stall admission for silent*helloTimeout =
	// 3s before the first legitimate hello; concurrent reads bound the
	// aggregate stall by one timeout. 3x budgets generously for training
	// and race-detector slowdowns while staying far below the serial cost.
	if limit := 3 * helloTimeout; elapsed >= limit {
		t.Fatalf("federation took %v with %d silent conns; want < %v (serial reads would cost ~%v of stall alone)",
			elapsed, silent, limit, silent*helloTimeout)
	}
	// Every lurker and both garbage conns were accepted before the
	// legitimate parties (loopback accepts are FIFO), so each is either
	// already rejected or expired-and-rejected when admission completes —
	// all delivered before AcceptAndRun returned.
	mu.Lock()
	defer mu.Unlock()
	if rejected < silent+2 {
		t.Fatalf("only %d of %d bad conns rejected", rejected, silent+2)
	}
}

// runChunkedTCP runs a chunked federation over loopback TCP with send
// jitter on every party, forcing heavy cross-party frame interleaving in
// both directions, and returns the server's result.
func runChunkedTCP(t *testing.T, cfg fl.Config, locals []*data.Dataset, test *data.Dataset) *fl.Result {
	t.Helper()
	spec, _ := data.Model("adult")
	ln := mustListen(t)
	// Same party seeds as RunLocal, so the trained updates are bitwise
	// identical and only the transport differs.
	res, partyErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals), func(i int) error {
		return servePartyTCP(ln.Addr(), i, locals[i], spec, cfg, func(conn Conn) Conn {
			return &jitterConn{Conn: conn, r: rng.New(uint64(2000 + i))}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
	return res
}

// TestChunkedDownlinkParityAcrossChunkSizes pins the chunked broadcast
// bitwise against the monolithic downlink: the same SCAFFOLD federation
// (two-vector downlink — state plus server control, so frames meet the
// state/control seam) runs once with whole-message framing over
// in-process pipes and then chunked over jittered TCP at three chunk
// sizes — a tiny odd size, a size that splits the state mid-vector with a
// short seam frame, and one bigger than the whole stream (single-frame
// degenerate case). Every final state must match the reference bit for
// bit.
func TestChunkedDownlinkParityAcrossChunkSizes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Algorithm = fl.Scaffold
	cfg.Rounds = 2
	spec, _ := data.Model("adult")

	ref, err := RunLocal(cfg, spec, locals, test) // ChunkSize 0: monolithic
	if err != nil {
		t.Fatal(err)
	}
	stateLen := len(ref.FinalState)
	for _, chunk := range []int{37, stateLen/2 + 1, 1 << 20} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			c := cfg
			c.ChunkSize = chunk
			got := runChunkedTCP(t, c, locals, test)
			if len(got.FinalState) != stateLen {
				t.Fatalf("state length %d vs %d", len(got.FinalState), stateLen)
			}
			for i := range ref.FinalState {
				if got.FinalState[i] != ref.FinalState[i] {
					t.Fatalf("state[%d]: chunked %v vs monolithic %v", i, got.FinalState[i], ref.FinalState[i])
				}
			}
			for r := range ref.Curve {
				if got.Curve[r].TrainLoss != ref.Curve[r].TrainLoss {
					t.Fatalf("round %d: loss chunked %v vs monolithic %v", r, got.Curve[r].TrainLoss, ref.Curve[r].TrainLoss)
				}
			}
		})
	}
}

// downlinkFrom feeds frames to a fresh downlinkReader over a pipe and
// returns the reader's first event plus its free list, so tests can see
// what the party side made of a server's framing.
func downlinkFrom(t *testing.T, max int, frames ...GlobalChunkMsg) (dlItem, chan []float64) {
	t.Helper()
	serverSide, partySide := Pipe()
	free := make(chan []float64, 4)
	r := newDownlinkReader(partySide, max, free, nil)
	go r.loop()
	t.Cleanup(func() {
		r.stop()
		_ = serverSide.Close()
	})
	for _, f := range frames {
		b, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := serverSide.Send(b); err != nil {
			t.Fatal(err)
		}
	}
	return r.next(), free
}

// TestDownlinkTotalBounded pins the party side of the memory contract:
// the assembly buffer is sized from the wire-supplied Total, so a header
// declaring an absurd stream length must be rejected before anything is
// allocated — the model's own state+param length is the bound.
func TestDownlinkTotalBounded(t *testing.T) {
	it, _ := downlinkFrom(t, 100, GlobalChunkMsg{Total: 1 << 30, Chunk: 8})
	if it.err == nil || !strings.Contains(it.err.Error(), "exceeds this model's bound") {
		t.Fatalf("oversized downlink Total declaration: %+v", it)
	}
	if it.g != nil {
		t.Fatal("a handle (and its assembly buffer) was published for a rejected declaration")
	}
	// A declaration at the bound assembles normally, in order, across the
	// state/control seam, into a buffer the free list gets back.
	it, free := downlinkFrom(t, 3,
		GlobalChunkMsg{Round: 4, Total: 3, CtrlLen: 1, Chunk: 2, Payload: []float64{1, 2}},
		GlobalChunkMsg{Round: 4, Offset: 2, Total: 3, CtrlLen: 1, Chunk: 2, Last: true, Payload: []float64{3}})
	if it.err != nil || it.g == nil {
		t.Fatalf("in-bound stream: %+v", it)
	}
	if !it.g.WaitAll() {
		t.Fatal(it.g.Err())
	}
	if st, c := it.g.State(), it.g.Control(); it.g.round != 4 || len(st) != 2 || st[1] != 2 || len(c) != 1 || c[0] != 3 {
		t.Fatalf("reassembled round %d state %v control %v", it.g.round, st, c)
	}
	it.g.Release()
	if len(free) != 1 {
		t.Fatalf("released handle returned %d buffers to the free list, want 1", len(free))
	}
}

// TestDownlinkEmptyFrameRejected pins the no-spin rule on the party
// side: an empty frame that is not the stream's last makes no progress
// and must be rejected, not looped on.
func TestDownlinkEmptyFrameRejected(t *testing.T) {
	it, _ := downlinkFrom(t, 10, GlobalChunkMsg{Total: 4, Chunk: 2})
	if it.err == nil || !strings.Contains(it.err.Error(), "empty non-final") {
		t.Fatalf("empty non-final downlink frame: %+v", it)
	}
}
