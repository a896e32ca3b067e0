package simnet

import (
	"net"
	"slices"
	"sync"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
)

// recvBroadcast reads one round broadcast off a scripted party's conn and
// reassembles it, trusting the server's framing. ok is false when the
// server sent its shutdown or the conn ended instead.
func recvBroadcast(conn Conn) (g GlobalMsg, ok bool) {
	var buf []float64
	for {
		raw, err := conn.Recv()
		if err != nil {
			return g, false
		}
		msg, err := Unmarshal(raw)
		if err != nil {
			return g, false
		}
		m, isChunk := msg.(GlobalChunkMsg)
		if !isChunk {
			return g, false
		}
		buf = append(buf, m.Payload...)
		if m.Last {
			g = GlobalMsg{Round: m.Round, Chunk: m.Chunk, State: buf[:m.Total-m.CtrlLen]}
			if m.CtrlLen > 0 {
				g.Control = buf[m.Total-m.CtrlLen:]
			}
			return g, true
		}
	}
}

// updateFrames frames a constant-valued, state-only update exactly as an
// honest party would answer g: chunks of the server-requested size, the
// trailer meta on every frame, Last on the final one.
func updateFrames(g GlobalMsg, n, tau int, val float64) []UpdateChunkMsg {
	total := len(g.State)
	delta := make([]float64, total)
	for i := range delta {
		delta[i] = val
	}
	var frames []UpdateChunkMsg
	_ = fl.ChunkStream(delta, nil, g.Chunk, func(off int, chunk []float64) error {
		frames = append(frames, UpdateChunkMsg{
			Round: g.Round, Offset: off, Total: total, N: n, Tau: tau, TrainLoss: 0.5,
			Last: off+len(chunk) == total, Chunk: chunk,
		})
		return nil
	})
	return frames
}

// drainReply reads one update stream off a scripted server's conn, up to
// its last frame.
func drainReply(conn Conn) error {
	for {
		raw, err := conn.Recv()
		if err != nil {
			return err
		}
		m, _, err := parseUpdateChunk(raw)
		if err != nil || m.Last {
			return err
		}
	}
}

// sendFrames marshals and sends frames in order, stopping at the first
// send the server refuses (it closes a violator's conn mid-script).
func sendFrames(conn Conn, frames []UpdateChunkMsg) error {
	for _, f := range frames {
		b, err := Marshal(f)
		if err != nil {
			return err
		}
		if err := conn.Send(b); err != nil {
			return err
		}
	}
	return nil
}

// rawParty connects a scripted protocol peer: hello, then a custom reply
// per broadcast — used to inject malformed traffic. It returns when the
// server shuts the party down or closes its conn, or reply fails.
func rawParty(t *testing.T, conn Conn, hello HelloMsg, reply func(g GlobalMsg) error) {
	t.Helper()
	b, err := Marshal(hello)
	if err != nil {
		t.Errorf("rawParty marshal: %v", err)
		return
	}
	if err := conn.Send(b); err != nil {
		t.Errorf("rawParty hello: %v", err)
		return
	}
	for {
		g, ok := recvBroadcast(conn)
		if !ok {
			return
		}
		if err := reply(g); err != nil {
			return
		}
	}
}

// heldConn parks a party's uplink: no update frame leaves until release
// is closed.
type heldConn struct {
	Conn
	release <-chan struct{}
}

func (h *heldConn) Send(b []byte) error {
	if len(b) > 0 && b[0] == msgUpdateChunk {
		<-h.release
	}
	return h.Conn.Send(b)
}

// scriptedID is the party ID serveWithScripted gives its scripted peer.
const scriptedID = 2

// serveWithScripted runs a three-party in-memory federation: parties 0
// and 1 are honest party sessions on locals[0] and locals[1], party 2 is a
// rawParty reporting n samples and answering each broadcast with reply.
// With holdHonest the honest parties' uploads wait for the run's first
// eviction — under the async scheduler nothing else orders the scripted
// party's stream before the honest folds that could complete the run.
// It returns the server's result together with the federation (for its
// gauges) and every Suspected or Evicted event the run reported.
func serveWithScripted(t *testing.T, cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset,
	n int, holdHonest bool, reply func(conn Conn, g GlobalMsg) error) (*fl.Result, *Federation, []Event, error) {
	t.Helper()
	firstEviction := make(chan struct{})
	var once sync.Once
	var events eventLog
	fed := pipeFed(t, cfg, spec, test, scriptedID+1, ServerOptions{
		Events: func(e Event) {
			if e.Kind == Suspected || e.Kind == Evicted {
				events.add(e)
				once.Do(func() { close(firstEviction) })
			}
		}})
	res, partyErrs, err := fed.federate(scriptedID+1, func(i int) error {
		conn, err := fed.connect()
		if err != nil {
			return err
		}
		defer conn.Close() // the async receivers drain each conn until EOF
		if i == scriptedID {
			rawParty(t, conn, HelloMsg{ID: scriptedID, N: n, LabelDist: []float64{0.5, 0.5}},
				func(g GlobalMsg) error { return reply(conn, g) })
			return nil
		}
		if holdHonest {
			conn = &heldConn{Conn: conn, release: firstEviction}
		}
		return serveParty(conn, i, locals[i], spec, cfg, cfg.Seed+uint64(i))
	})
	reportErrs(t, partyErrs)
	return res, fed.Federation, events.of(Suspected, Evicted), err
}

// eventLog records a federation's events in delivery order; add is an
// Events sink.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	l.evs = append(l.evs, e)
	l.mu.Unlock()
}

// of returns the recorded events of the given kinds — every event when
// none is given — in delivery order.
func (l *eventLog) of(kinds ...EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.evs {
		if len(kinds) == 0 || slices.Contains(kinds, e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

// memFed is a federation whose peers the test scripts itself: the server
// side, admitted by the accept loop on an in-memory listener (pipeFed) or
// a loopback TCP one (tcpFed), and the dial that connects one more peer
// to it.
type memFed struct {
	*Federation
	ln   *ServerListener
	dial func() (net.Conn, error)
	// wrap, when set, goes around every server end the accept loop takes.
	wrap func(Conn) Conn
}

// pipeFed builds the server side of a federation of parties under opts;
// peers connect with connect, and federate (or serve) runs it.
func pipeFed(t testing.TB, cfg fl.Config, spec nn.ModelSpec, test *data.Dataset, parties int, opts ServerOptions) *memFed {
	t.Helper()
	ln, dial := listenMem()
	return fedOn(t, ln, dial, cfg, spec, test, parties, opts)
}

// tcpFed is pipeFed on a loopback socket: its peers dial TCP.
func tcpFed(t testing.TB, cfg fl.Config, spec nn.ModelSpec, test *data.Dataset, parties int, opts ServerOptions) *memFed {
	t.Helper()
	ln := mustListen(t)
	addr := ln.Addr()
	return fedOn(t, ln, func() (net.Conn, error) { return net.Dial("tcp", addr) }, cfg, spec, test, parties, opts)
}

// fedOn builds the server side of a federation on ln, which dial reaches.
func fedOn(t testing.TB, ln *ServerListener, dial func() (net.Conn, error), cfg fl.Config, spec nn.ModelSpec, test *data.Dataset, parties int, opts ServerOptions) *memFed {
	t.Helper()
	ln.ServerOptions = opts
	fed, err := newFederation(cfg, spec, test, parties, ln.ServerOptions)
	if err != nil {
		_ = ln.Close()
		t.Fatal(err)
	}
	return &memFed{Federation: fed, ln: ln, dial: dial}
}

// connect dials the federation and returns the peer's end: a fresh framed
// pipe, taken by the accept loop. It fails once the listener closed.
func (m *memFed) connect() (Conn, error) {
	c, err := m.dial()
	if err != nil {
		return nil, err
	}
	return newFrameConn(c), nil
}

// pipe returns two connected in-memory Conns: the ends of a net.Pipe,
// framed exactly as a socket is. A Send returns once the peer has read
// the frame.
func pipe() (Conn, Conn) {
	a, b := net.Pipe()
	return newFrameConn(a), newFrameConn(b)
}

// serve runs the federation to completion on the calling goroutine,
// admitting whoever connects, and closes the listener as it returns.
func (m *memFed) serve() (*fl.Result, error) {
	defer m.ln.Close()
	return m.acceptAndRun(func() (Conn, error) {
		c, err := m.ln.accept()
		if err != nil || m.wrap == nil {
			return c, err
		}
		return m.wrap(c), nil
	})
}

// federate serves the federation beside `peers` goroutines — whatever the
// test scripts against it — and waits for every peer.
func (m *memFed) federate(peers int, peer func(i int) error) (*fl.Result, []error, error) {
	return runInProcess(peers, m.serve, peer)
}

// serveParty runs one plain party session on conn until shutdown.
func serveParty(conn Conn, i int, ds *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64) error {
	s, err := newPartySession(i, ds, spec, cfg, seed)
	if err != nil {
		return err
	}
	return s.run(conn, "", false, 0)
}

// serveRejoining runs party i's session on conn and, each time the conn
// is lost, on a fresh one from dial with a rejoin hello, until the session
// ends cleanly or a redial is refused: the run is over and its listener
// closed.
func serveRejoining(conn Conn, dial func() (Conn, error), i int, ds *data.Dataset, spec nn.ModelSpec, cfg fl.Config) error {
	s, err := newPartySession(i, ds, spec, cfg, PartySeed(cfg.Seed, i))
	if err != nil {
		return err
	}
	for rejoining := false; ; rejoining = true {
		err := s.run(conn, "", rejoining, 0)
		_ = conn.Close()
		if err == nil {
			return nil
		}
		if conn, err = dial(); err != nil {
			return nil
		}
	}
}

// mustLoopback is RunLoopback for tests in which nothing may fail: the
// server's error is fatal and every party error is reported.
func mustLoopback(t *testing.T, cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset,
	opts ServerOptions, party func(i int) PartyOptions) *fl.Result {
	t.Helper()
	res, partyErrs, err := RunLoopback(cfg, spec, locals, test, opts, party)
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
	return res
}

// federateTCP runs ln.AcceptAndRun for numParties on the calling goroutine
// beside `peers` goroutines — the honest parties and whatever else the
// test scripts against ln.Addr() — then closes the listener and waits for
// every peer. It is the shared runner with the party side left to the
// test.
func federateTCP(ln *ServerListener, numParties int, cfg fl.Config, spec nn.ModelSpec, test *data.Dataset,
	peers int, peer func(i int) error) (*fl.Result, []error, error) {
	return runInProcess(peers,
		func() (*fl.Result, error) {
			defer ln.Close()
			return ln.AcceptAndRun(numParties, cfg, spec, test)
		}, peer)
}

// mustListen binds an ephemeral loopback listener.
func mustListen(t testing.TB) *ServerListener {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// reportErrs reports every non-nil peer error.
func reportErrs(t testing.TB, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Errorf("party %d: %v", i, err)
		}
	}
}

// servePartyTCP is a plain party on a dialed socket the test may wrap
// (jitter, kills, holds): serveParty with the federation's party seed.
func servePartyTCP(addr string, i int, ds *data.Dataset, spec nn.ModelSpec, cfg fl.Config, wrap func(Conn) Conn) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	conn := newFrameConn(c)
	if wrap != nil {
		conn = wrap(conn)
	}
	return serveParty(conn, i, ds, spec, cfg, PartySeed(cfg.Seed, i))
}

// dialRaw sends one raw frame to a listener as a fresh connection and
// waits for the server to hang up, so the rejection is registered before
// the caller asserts on it.
func dialRaw(addr string, payload []byte) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	conn := newFrameConn(c)
	_ = conn.Send(payload)
	_, _ = conn.Recv()
	return conn.Close()
}
