package simnet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/le"
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

// TestVersionSkew is the one skew test of the v6 wire. Range negotiation
// survives: a future peer whose range still reaches 6 is admitted. The
// historical layouts do not: hellos exactly as a v5, a v4 and a v2 build
// emit them are turned away at admission with a typed *VersionError
// naming the peer's generation — never a misaligned decode. And codec
// negotiation falls back: on an int8 server, a party whose support mask
// lacks the int8 bit is admitted and served raw float64 frames while its
// peer gets int8 ones.
func TestVersionSkew(t *testing.T) {
	fed := pipeFed(t, fl.Config{LocalEpochs: 1, BatchSize: 32, Codec: fl.CodecInt8}, nn.ModelSpec{}, nil, 4, ServerOptions{})
	d := newAdmissionDriver(t, fed.Federation, fed.ln, fed.dial)
	defer d.close()
	// admit returns the verdict on a hello: its rejection, or nil for the
	// seat taken.
	admit := func(hello []byte) error {
		_, err := d.hello(hello, false)
		return err
	}
	// tag, magic, version 4, min-version 2, codec mask, rejoin, ID, N,
	// empty token, empty label distribution: the v4 layout.
	v4 := []byte{msgHello, protoMagic, 4, 2, 0x0F, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	// tag, magic, version 2, rejoin, ID, N, token, distribution: the
	// pre-range v2 layout.
	v2 := []byte{msgHello, protoMagic, 2, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	// v5 kept the v6 hello layout; only its range [5,5] differs.
	v5, err := Marshal(HelloMsg{ID: 0, N: 10, Version: 5, MinVersion: 5, LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	for want, hello := range map[byte][]byte{5: v5, 4: v4, 2: v2} {
		var ve *VersionError
		if err := admit(hello); !errors.As(err, &ve) || *ve != (VersionError{Got: want, GotMin: want}) {
			t.Fatalf("v%d hello at admission: %v, want a *VersionError for generation %d", want, err, want)
		}
	}
	future, err := Marshal(HelloMsg{ID: 0, N: 10, Version: ProtoVersion + 2, MinVersion: ProtoVersion, LabelDist: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := admit(future); err != nil {
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
	if err := admit(disjoint); !errors.As(err, &ve) || ve.GotMin != ProtoVersion+1 {
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
	saw := make([]byte, 2) // the codec each party's broadcast arrived in
	mixed := pipeFed(t, cfg, spec, test, 2, ServerOptions{})
	res, partyErrs, err := mixed.federate(2, func(i int) error {
		conn, err := mixed.connect()
		if err != nil {
			return err
		}
		defer conn.Close()
		hello := HelloMsg{ID: i, N: partyN, LabelDist: []float64{0.5, 0.5}}
		if i == 1 {
			hello.Codecs = 1<<wireCodecF64 | 1<<wireCodecF32
		}
		rawParty(t, &codecSpy{Conn: conn, saw: &saw[i]}, hello, func(g GlobalMsg) error {
			// The server accepts either encoding on the uplink.
			return sendFrames(conn, updateFrames(g, partyN, tau, 0))
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
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
		Chunk: 37, Last: true, Payload: []float64{1.5, -2, 3}}
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
		got.Chunk != 37 || !got.Last ||
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

// TestVersionSkewRejectedAtAdmission connects peers speaking a future-only
// and the previous (v5) protocol version, the wrong magic, and a hello
// truncated inside the version preamble. Each must be turned away with a
// clean, descriptive Refused event — never a misaligned decode or a hang —
// while the federation keeps waiting and completes once the real parties
// arrive.
func TestVersionSkewRejectedAtAdmission(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 2
	spec, _ := data.Model("adult")

	ln := mustListen(t)
	var events eventLog
	ln.Events = events.add
	addr := ln.Addr()
	stale, err := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}, Version: ProtoVersion + 41, MinVersion: ProtoVersion + 41})
	if err != nil {
		t.Fatal(err)
	}
	v5, err := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}, Version: 5, MinVersion: 5})
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

	rawDone := make(chan struct{})
	res, peerErrs, err := federateTCP(ln, len(locals), cfg, spec, test, len(locals)+1, func(i int) error {
		if i == len(locals) {
			defer close(rawDone)
			return errors.Join(dialRaw(addr, stale), dialRaw(addr, v5), dialRaw(addr, badMagic), dialRaw(addr, truncated))
		}
		// The run starts once the honest parties are in, and a short run
		// can end before a raw dial is read, expiring it unjudged. Each
		// dialRaw returns only after the server judged and hung up on it.
		<-rawDone
		return DialPartyOpts(addr, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), PartyOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, peerErrs)
	if res.FinalAccuracy < 0.55 {
		t.Fatalf("federation accuracy %v", res.FinalAccuracy)
	}
	rejections := events.of(Refused)
	if len(rejections) < 4 {
		t.Fatalf("expected 4 rejections (stale, v5, magic, truncated), got %v", rejections)
	}
	var sawVersion, sawV5, sawMagic, sawTruncated bool
	for _, rej := range rejections {
		if rej.Party != -1 {
			t.Fatalf("a hello that never decoded was refused as party %d: %v", rej.Party, rej)
		}
		var ve *VersionError
		if errors.As(rej.Err, &ve) {
			switch *ve {
			case VersionError{Got: ProtoVersion + 41, GotMin: ProtoVersion + 41}:
				sawVersion = true
			case VersionError{Got: 5, GotMin: 5}:
				sawV5 = true
			default:
				t.Fatalf("version rejection carries peer range %+v, want [%d,%d] or [5,5]", *ve, ProtoVersion+41, ProtoVersion+41)
			}
		}
		if strings.Contains(rej.Err.Error(), "magic") {
			sawMagic = true
		}
		if strings.Contains(rej.Err.Error(), "preamble") {
			sawTruncated = true
		}
	}
	if !sawVersion || !sawV5 || !sawMagic || !sawTruncated {
		t.Fatalf("rejection reasons not descriptive (version=%v v5=%v magic=%v truncated=%v): %v",
			sawVersion, sawV5, sawMagic, sawTruncated, rejections)
	}
}

// TestConcurrentAdmissionBoundedStall is the regression test for the
// head-of-line admission fix: k silent connections (plus a couple sending
// garbage) arrive ahead of the legitimate parties, and the federation
// must still admit and complete within a small multiple of ONE
// hello timeout. The pre-fix serial hello reads cost k timeouts before the
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
	ln.helloTimeout = helloTimeout
	var events eventLog
	ln.Events = events.add
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
	if rejected := len(events.of(Refused)); rejected < silent+2 {
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

// sendGlobal marshals and sends broadcast frames in order.
func sendGlobal(t *testing.T, conn Conn, frames ...GlobalChunkMsg) {
	t.Helper()
	for _, f := range frames {
		b, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(b); err != nil {
			t.Fatal(err)
		}
	}
}

// readGlobal is the party's read of one server message: its first frame,
// then recvGlobal for the rest, into the assembly buffer *buf.
func readGlobal(conn Conn, stateLen, ctrlLen int, buf *[]float64) (incomingGlobal, bool, error) {
	raw, err := conn.Recv()
	if err != nil {
		return incomingGlobal{}, false, err
	}
	return recvGlobal(conn, raw, stateLen, ctrlLen, buf)
}

// downlinkFrom sends frames over a pipe to a party whose model takes
// stateLen state and ctrlLen control elements, and returns what the party
// made of the server's framing: the broadcast or the error, and the
// assembly buffer it read into.
func downlinkFrom(t *testing.T, stateLen, ctrlLen int, frames ...GlobalChunkMsg) (incomingGlobal, []float64, error) {
	t.Helper()
	return downlinkRaw(t, stateLen, ctrlLen, marshalFrames(t, frames)...)
}

// marshalFrames encodes frames as the server would put them on the wire.
func marshalFrames(t *testing.T, frames []GlobalChunkMsg) [][]byte {
	t.Helper()
	raw := make([][]byte, len(frames))
	for i, f := range frames {
		b, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = b
	}
	return raw
}

// downlinkRaw is downlinkFrom over frames already encoded.
func downlinkRaw(t *testing.T, stateLen, ctrlLen int, frames ...[]byte) (incomingGlobal, []float64, error) {
	t.Helper()
	serverSide, partySide := pipe()
	t.Cleanup(func() {
		_ = serverSide.Close()
		_ = partySide.Close()
	})
	// The server side sends from its own goroutine: a party that refuses
	// the stream stops reading, and the frames behind the refusal then fail
	// when the cleanup hangs up.
	go func() {
		for _, b := range frames {
			if serverSide.Send(b) != nil {
				return
			}
		}
	}()
	var buf []float64
	g, shutdown, err := readGlobal(partySide, stateLen, ctrlLen, &buf)
	if shutdown {
		t.Fatal("a broadcast stream read as a shutdown")
	}
	return g, buf, err
}

// TestDownlinkTotalBounded pins the party side of the memory contract and
// of the model's shape: the assembly buffer is sized from the
// wire-supplied Total, so the first frame must declare exactly this
// party's state length and control suffix (the parameter count under
// SCAFFOLD, none otherwise). Any other declaration — an absurd length, a
// smaller model, a FedAvg server feeding a SCAFFOLD party or the reverse —
// is an error naming both lengths, refused before anything is allocated
// or published.
func TestDownlinkTotalBounded(t *testing.T) {
	for _, tc := range []struct {
		name              string
		stateLen, ctrlLen int
		frame             GlobalChunkMsg
		want              string
	}{
		{"oversized", 100, 0, GlobalChunkMsg{Total: 1 << 30, Chunk: 8}, "state of 1073741824 elements, this party's model has 100"},
		{"state one short", 100, 0, GlobalChunkMsg{Total: 99, Chunk: 8}, "state of 99 elements, this party's model has 100"},
		{"control missing", 2, 1, GlobalChunkMsg{Total: 2, Chunk: 8}, "control suffix of 0 elements, this party takes 1"},
		{"control unexpected", 2, 0, GlobalChunkMsg{Total: 3, CtrlLen: 1, Chunk: 8}, "control suffix of 1 elements, this party takes 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, buf, err := downlinkFrom(t, tc.stateLen, tc.ctrlLen, tc.frame)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			if g.State != nil {
				t.Fatal("a broadcast was published for a rejected declaration")
			}
			if buf != nil {
				t.Fatalf("the party allocated an assembly buffer of %d elements for a rejected declaration", cap(buf))
			}
		})
	}
	// The party's exact shape assembles normally, in order, across the
	// state/control seam, into the assembly buffer.
	g, buf, err := downlinkFrom(t, 2, 1,
		GlobalChunkMsg{Round: 4, Total: 3, CtrlLen: 1, Chunk: 2, Payload: []float64{1, 2}},
		GlobalChunkMsg{Round: 4, Offset: 2, Total: 3, CtrlLen: 1, Chunk: 2, Last: true, Payload: []float64{3}})
	if err != nil {
		t.Fatalf("in-shape stream: %v", err)
	}
	if g.Round != 4 || len(g.State) != 2 || g.State[1] != 2 || len(g.Control) != 1 || g.Control[0] != 3 {
		t.Fatalf("reassembled round %d state %v control %v", g.Round, g.State, g.Control)
	}
	if len(buf) != 3 || &g.State[0] != &buf[0] || &g.Control[0] != &buf[2] {
		t.Fatal("the broadcast does not view the assembly buffer")
	}
}

// TestDownlinkEmptyFrameRejected pins the no-spin rule on the party
// side: an empty frame that is not the stream's last makes no progress
// and must be rejected, not looped on.
func TestDownlinkEmptyFrameRejected(t *testing.T) {
	_, _, err := downlinkFrom(t, 4, 0, GlobalChunkMsg{Total: 4, Chunk: 2})
	if err == nil || !strings.Contains(err.Error(), "empty non-final") {
		t.Fatalf("empty non-final downlink frame: %v", err)
	}
}

// TestDownlinkViolationsUnpublished is the party side's framing table,
// the downlink twin of TestStreamViolationsEvictOffender: each case
// rewrites one frame of an otherwise valid three-frame broadcast (state 5,
// control 1, frames of 2). Every violation must be refused with an error
// and publish nothing.
func TestDownlinkViolationsUnpublished(t *testing.T) {
	frames := func() []GlobalChunkMsg {
		fr := make([]GlobalChunkMsg, 3)
		for i := range fr {
			fr[i] = GlobalChunkMsg{Round: 3, Offset: 2 * i, Total: 6, CtrlLen: 1, Chunk: 2,
				Last: i == 2, Payload: []float64{float64(2 * i), float64(2*i + 1)}}
		}
		return fr
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(fr []GlobalChunkMsg) []GlobalChunkMsg
		wire       func(raw [][]byte)
	}{
		{name: "offset gap", want: "expected offset 2", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[1].Offset++
			return fr
		}},
		{name: "offset overlap", want: "expected offset 2", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[1].Offset--
			return fr
		}},
		{name: "stream overflow", want: "overflows stream length 6", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[2].Payload = append(fr[2].Payload, 6)
			return fr
		}},
		{name: "early last marker", want: "inconsistent last marker", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[1].Last = true
			return fr
		}},
		{name: "missing last marker", want: "inconsistent last marker", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[2].Last = false
			return fr
		}},
		{name: "empty non-final frame", want: "empty non-final", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[1].Payload = nil
			return fr
		}},
		{name: "round changes mid-stream", want: "header changed", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[1].Round++
			return fr
		}},
		{name: "codec switch mid-stream", want: "header changed", mutate: func(fr []GlobalChunkMsg) []GlobalChunkMsg {
			fr[1].Codec = wireCodecInt8
			return fr
		}},
		{name: "retired sixth header field", want: "payload of 12 bytes for 0 elements", wire: func(raw [][]byte) {
			// A v5 first frame: the kernel budget u32 sat between CtrlLen
			// and Chunk. Read as v6 it misaligns the flags and count, so
			// the payload length check refuses it before the assembly
			// buffer is sized.
			raw[0] = slices.Insert(raw[0], 1+4*4, le.AppendU32(nil, 1)...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := frames()
			if tc.mutate != nil {
				fr = tc.mutate(fr)
			}
			raw := marshalFrames(t, fr)
			if tc.wire != nil {
				tc.wire(raw)
			}
			g, buf, err := downlinkRaw(t, 5, 1, raw...)
			if err == nil || !strings.Contains(err.Error(), tc.want) || g.State != nil {
				t.Fatalf("got %+v, %v; want an error containing %q and no broadcast", g, err, tc.want)
			}
			if tc.wire != nil && buf != nil {
				t.Fatal("a malformed first frame sized the assembly buffer")
			}
		})
	}
	// The unmutated stream publishes.
	g, _, err := downlinkFrom(t, 5, 1, frames()...)
	if err != nil || g.State == nil || g.Control[0] != 5 {
		t.Fatalf("valid stream: %+v, %v", g, err)
	}
}

// TestDownlinkCutStreamUnpublished pins that a broadcast is published
// only whole: the server sends the first of two frames and hangs up. The
// party's read does not return while it waits for the second frame, and
// the hang-up yields an error and no broadcast.
func TestDownlinkCutStreamUnpublished(t *testing.T) {
	serverSide, partySide := pipe()
	defer partySide.Close()
	party := &probeConn{Conn: partySide, recvs: make(chan struct{}, 4)}
	type read struct {
		g        incomingGlobal
		shutdown bool
		err      error
	}
	got := make(chan read, 1)
	go func() {
		var buf []float64
		g, shutdown, err := readGlobal(party, 3, 0, &buf)
		got <- read{g, shutdown, err}
	}()
	sendGlobal(t, serverSide, GlobalChunkMsg{Round: 1, Total: 3, Chunk: 2, Payload: []float64{1, 2}})
	<-party.recvs
	<-party.recvs // the party asks for frame two: frame one is decoded
	select {
	case r := <-got:
		t.Fatalf("the party's read returned %+v before the broadcast's last frame", r)
	default:
	}
	_ = serverSide.Close()
	if r := <-got; r.err == nil || r.g.State != nil || r.shutdown {
		t.Fatalf("cut stream: %+v, want an error without a broadcast", r)
	}
}

// TestPartyHelloDeadline pins the party side of the hello deadline
// (PartyOptions.HelloTimeout): it bounds how long the server may take to
// produce its first frame, and that frame lifts it — a server that answers
// is then free to take its time, mid-broadcast and between rounds alike.
func TestPartyHelloDeadline(t *testing.T) {
	cfg, locals, _ := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize = 100 // several frames per broadcast and per reply
	const hello = 100 * time.Millisecond
	send := func(server Conn, frames ...[]byte) error {
		for _, b := range frames {
			if err := server.Send(b); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range []struct {
		name string
		// serve scripts the server after it has read the hello.
		serve   func(server Conn, frames func(gen int) [][]byte) error
		wantErr bool
	}{
		{name: "server never answers", wantErr: true, serve: func(Conn, func(int) [][]byte) error { return nil }},
		{name: "slow after first frame", serve: func(server Conn, frames func(int) [][]byte) error {
			bye, err := Marshal(ShutdownMsg{})
			if err != nil {
				return err
			}
			fr := frames(0)
			for _, step := range []func() error{
				func() error { return send(server, fr[0]) },
				func() error { time.Sleep(2 * hello); return send(server, fr[1:]...) },
				func() error { return drainReply(server) },
				func() error { time.Sleep(2 * hello); return send(server, frames(1)...) },
				func() error { return drainReply(server) },
				func() error { return send(server, bye) },
			} {
				if err := step(); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, err := newPartySession(0, locals[0], spec, cfg, PartySeed(cfg.Seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			state := make([]float64, s.client.StateCount())
			frames := func(gen int) [][]byte {
				fr, err := newGlobalFrames(gen, state, nil, cfg.ChunkSize).frames(wireCodecF64)
				if err != nil {
					t.Fatal(err)
				}
				return fr
			}
			if len(frames(0)) < 2 {
				t.Fatal("the broadcast must span several frames")
			}
			server, party := pipe()
			defer server.Close()
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				err := s.run(party, "", false, hello)
				_ = party.Close() // a party that gave up fails the script, not hangs it
				done <- err
			}()
			if _, err := server.Recv(); err != nil {
				t.Fatal(err)
			}
			scriptErr := row.serve(server, frames)
			select {
			case err := <-done:
				took := time.Since(start)
				if !row.wantErr {
					if err != nil {
						t.Fatalf("a server that answered in time failed the party after %v: %v", took, err)
					}
					if scriptErr != nil {
						t.Fatal(scriptErr)
					}
					return
				}
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("got %v, want the hello deadline's timeout", err)
				}
				if took < hello {
					t.Fatalf("the party gave up after %v, before its %v hello deadline", took, hello)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the party is still waiting 10s later")
			}
		})
	}
}

// TestCutBroadcastRejoinBitwise is the session-level guarantee a cut
// broadcast buys: training never starts on a partial global, so nothing
// needs rolling back. A scripted server sends round 0 and reads the
// reply, sends half of round 1 and hangs up; the same session rejoins on
// a new pipe, is resynced to round 1, and receives round 1 whole. Its
// round-1 reply must be byte-identical to an uncut session's.
func TestCutBroadcastRejoinBitwise(t *testing.T) {
	cfg, locals, _ := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize = 100
	session := func() *partySession {
		s, err := newPartySession(0, locals[0], spec, cfg, PartySeed(cfg.Seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	state := make([]float64, session().client.StateCount())
	for i := range state {
		state[i] = float64(i%7-3) * 0.01
	}
	frames := func(round int) [][]byte {
		fr, err := newGlobalFrames(round, state, nil, cfg.ChunkSize).frames(wireCodecF64)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	if len(frames(1)) < 2 {
		t.Fatal("the broadcast must span several frames to be cut")
	}
	send := func(conn Conn, msgs ...[]byte) {
		t.Helper()
		for _, b := range msgs {
			if err := conn.Send(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	reply := func(conn Conn) []byte { // one reply's frames, concatenated
		t.Helper()
		var out []byte
		for {
			raw, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw...)
			if m, _, err := parseUpdateChunk(raw); err != nil {
				t.Fatal(err)
			} else if m.Last {
				return out
			}
		}
	}
	bye, err := Marshal(ShutdownMsg{})
	if err != nil {
		t.Fatal(err)
	}
	// serve runs s on a fresh pipe while script plays the server after the
	// hello, then hangs up and returns the session's error.
	serve := func(s *partySession, rejoin bool, script func(server Conn)) error {
		t.Helper()
		server, party := pipe()
		done := make(chan error, 1)
		go func() { done <- s.run(party, "", rejoin, 0) }()
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
		script(server)
		_ = server.Close()
		return <-done
	}

	var want0, want1 []byte
	if err := serve(session(), false, func(server Conn) {
		send(server, frames(0)...)
		want0 = reply(server)
		send(server, frames(1)...)
		want1 = reply(server)
		send(server, bye)
	}); err != nil {
		t.Fatal(err)
	}

	s := session()
	var got0 []byte
	if err := serve(s, false, func(server Conn) {
		send(server, frames(0)...)
		got0 = reply(server)
		fr := frames(1)
		send(server, fr[:len(fr)/2]...)
	}); err == nil {
		t.Fatal("the session ended cleanly on a cut broadcast")
	}
	resync, err := Marshal(ResyncMsg{})
	if err != nil {
		t.Fatal(err)
	}
	var got1 []byte
	if err := serve(s, true, func(server Conn) {
		send(server, resync)
		send(server, frames(1)...)
		got1 = reply(server)
		send(server, bye)
	}); err != nil {
		t.Fatal(err)
	}
	if string(got0) != string(want0) {
		t.Fatal("round-0 replies differ before the cut")
	}
	if string(got1) != string(want1) {
		t.Fatal("the round-1 reply after a cut broadcast and a rejoin differs from the uncut session's")
	}
}
