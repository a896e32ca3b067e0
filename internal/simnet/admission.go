package simnet

import (
	"crypto/subtle"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
)

// This file is how a party gets into the federation: the server's options,
// the listener — TCP, or in memory for an in-process federation — whose
// one accept loop reads hellos, and the one admission rule
// (Federation.admit) it applies to every decoded hello.

// ServerOptions configures the server side of a federation beyond the
// training Config. The zero value is an open, patient, memoryless server:
// no token, the default hello timeout, no round timeout, no heal window,
// no event sink, no snapshot to resume from or to write.
type ServerOptions struct {
	// Token, when non-empty, is the shared secret every hello must
	// present; a mismatch costs the offending connection only.
	Token string
	// helloTimeout bounds how long an accepted connection may take to
	// present its complete hello; a connection that stalls past it is
	// rejected like any other bad hello. Zero means the 10s default, which
	// every program runs; tests shorten it. A timed-out legitimate party
	// can simply redial. Hellos are read concurrently in bounded batches of
	// maxConcurrentHellos, so k silent or byte-trickling connections delay
	// admission by at most ceil(k/64) timeouts — one, for any realistic k.
	helloTimeout time.Duration
	// RoundTimeout, when positive, bounds how long the server waits for
	// each reply frame within a round: the conn's receiver starts the
	// clock once the party's broadcast went out, and restarts it on every
	// received frame, so the first gap must cover the party's local
	// training (under async, where a party idles between generations, only
	// the gaps inside a stream are bounded). A party that stalls past it is
	// treated like a dead conn: suspected and dropped from the round, at
	// every chunk size. Zero waits forever — the right default when honest
	// parties may train for arbitrarily long.
	RoundTimeout time.Duration
	// RejoinGrace, when positive, is the broadcast heal window: a round
	// whose broadcast fails toward some party waits — up to this long
	// after the broadcast began — for that party's rejoin before
	// proceeding without it, woken by the rejoin itself, which is
	// installed the moment it is queued. A death discovered at the
	// broadcast — before the party trained or any update was folded — is
	// the one failure that can be repaired mid-round without touching the
	// math: the rejoined conn's fresh sender just delivers the same
	// broadcast. The window bounds only the wait for the rejoin: once the
	// fresh sender has taken the broadcast up, the round waits for its
	// delivery however long it takes, as for any other party. Healing
	// here is what makes a between-rounds conn loss bitwise-invisible to
	// the aggregation; zero (the default) skips the wait and lets the
	// round drop the party as usual. The heal is all it bounds: a
	// federation short of parties — under either scheduler, all of them
	// dead included — waits for rejoins under the quorum rule, for
	// fl.Config.QuorumWait.
	RejoinGrace time.Duration
	// Events, when set, is called with every membership and traffic
	// transition of the federation, one Event each (see EventKind). It may
	// be called from any federation goroutine, concurrently; never with the
	// federation's locks held, so it may call back into the federation;
	// and never after AcceptAndRun returns (hellos still being read when
	// the run ends are expired and their refusals delivered first; conns
	// accepted after that are closed without an event). A round's
	// Suspected and Evicted events are delivered before the next round
	// samples. A refusal never tears down the federation — the server
	// keeps waiting for the legitimate parties.
	Events func(Event)
	// Resume, when non-nil, is the durable snapshot this federation
	// continues from instead of starting at round 0: the engine restores
	// the server and sampler state, and admission treats rejoin hellos
	// from parties this process never seated as first contacts (seat +
	// immediate ResyncMsg), because the restarted server has no live
	// sessions for the parties that survived it. The snapshot's party
	// count must match the federation's.
	Resume *fl.FederationSnapshot
	// Checkpoint, when set, is invoked at round boundaries (every
	// CheckpointEvery rounds; <=0 means every round) with a complete
	// snapshot — server state, sampler position, metrics history and the
	// per-party resync controls — for durable storage. The snapshot is
	// borrowed from the server (fl.Engine.Snapshot): it is valid only
	// until the hook returns. An error aborts the run.
	Checkpoint      func(*fl.FederationSnapshot) error
	CheckpointEvery int
	// InitialState, when non-nil, seeds the global model from a model
	// file's state before round 0 (the transport mirror of
	// Simulation.SetInitialState). Ignored when Resume is set — a full
	// snapshot already carries the state.
	InitialState []float64
}

// Event is one transition of a federation, as ServerOptions.Events sees
// it.
type Event struct {
	Kind EventKind
	// Party is the party ID the transition concerns: the ID a hello
	// claimed, even out of range, and -1 for a hello that never decoded.
	Party int
	// Conn is the party's conn ordinal: 1 for its first conn, plus one for
	// each conn a rejoin installed; 0 for a conn never seated (Refused,
	// RejoinQueued).
	Conn int
	// Gen is the round (sync) or generation (async) of Resynced (the round
	// the party resumes at), Shipped and Answered; zero for the other kinds.
	Gen int
	// Err is the cause of Refused, Suspected and Evicted; nil otherwise.
	// Version skew surfaces as a wrapped *VersionError.
	Err error
}

// EventKind is what happened to a party or its conn.
type EventKind uint8

const (
	// Refused: a hello was turned away — malformed, silent past
	// the hello timeout, the wrong protocol version or magic, an out-of-range
	// or duplicate ID, a token mismatch, the rejoin of an evicted party —
	// and its conn closed.
	Refused EventKind = iota
	// Admitted: a first contact was seated.
	Admitted
	// RejoinQueued: a rejoin hello was parked for the round boundary.
	RejoinQueued
	// Resynced: a conn was seated after its ResyncMsg — an installed
	// rejoin, or a restored server's first contact.
	Resynced
	// Suspected: transport loss; the party's conn is closed, later rounds
	// skip it, and a rejoin restores it.
	Suspected
	// Evicted: a protocol violation; the party is out for good.
	Evicted
	// Shipped: a conn's sender took a generation up, before its first
	// frame.
	Shipped
	// Answered: a conn's receiver read one complete update stream, before
	// it counts toward the conn's next generation.
	Answered
)

var eventKindNames = [...]string{"refused", "admitted", "rejoin queued", "resynced", "suspected", "evicted", "shipped", "answered"}

func (k EventKind) String() string { return eventKindNames[k] }

// String renders e as one log line.
func (e Event) String() string {
	s := fmt.Sprintf("party %d %s", e.Party, e.Kind)
	if e.Conn > 0 {
		s += fmt.Sprintf(" on conn %d", e.Conn)
	}
	switch e.Kind {
	case Resynced, Shipped, Answered:
		s += fmt.Sprintf(" at generation %d", e.Gen)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// emit hands the Events sink one transition; the Event is built only when
// a sink is set. The caller holds neither mu nor the table's lock.
func (f *Federation) emit(kind EventKind, party, conn, gen int, err error) {
	if f.Events != nil {
		f.Events(Event{Kind: kind, Party: party, Conn: conn, Gen: gen, Err: err})
	}
}

// ServerListener is a bound endpoint for a federation server. Create it
// with Listen, set the embedded ServerOptions, hand Addr() to the parties,
// then call AcceptAndRun.
type ServerListener struct {
	l net.Listener
	ServerOptions
}

// listenMem returns a ServerListener on a fresh in-memory listener and the
// dial that connects a party to it — the in-process federation's
// transport, admitted by the same accept loop as TCP.
func listenMem() (*ServerListener, func() (net.Conn, error)) {
	l := &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
	return &ServerListener{l: l}, l.dial
}

// memListener is an in-memory net.Listener: each dial hands Accept one end
// of a fresh net.Pipe and returns the other.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// dial blocks until Accept takes the server's end, or the listener
// closes.
func (l *memListener) dial() (net.Conn, error) {
	server, party := net.Pipe()
	select {
	case l.conns <- server:
		return party, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return pipeAddr{} }

// pipeAddr is an in-memory listener's address.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// Listen binds a TCP address for the federation server. Use "127.0.0.1:0"
// for an ephemeral local port.
func Listen(addr string) (*ServerListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ServerListener{l: l}, nil
}

// Addr returns the bound address parties should dial.
func (s *ServerListener) Addr() string { return s.l.Addr().String() }

// Close releases the listener.
func (s *ServerListener) Close() error { return s.l.Close() }

// AcceptAndRun accepts connections until numParties distinct parties have
// presented a valid hello, then executes the federated protocol to
// completion. Hellos are read concurrently — in bounded batches of
// maxConcurrentHellos — so a batch of silent connections stalls
// admission by at most one hello timeout in aggregate instead of one
// each, while pre-admission buffer memory stays capped. A connection
// whose hello is malformed, speaks the wrong protocol version, is out of
// range, a duplicate, or carries the wrong token is closed on its own —
// reported as a Refused event, always before this function returns —
// without disturbing the parties already admitted. The accept loop stops
// when the caller closes the listener (connections arriving after the
// federation fills are closed without an event until then); if that
// happens before the federation fills, the parties already admitted are
// hung up on and the accept error is returned. Parties connect with
// DialPartyOpts.
func (s *ServerListener) AcceptAndRun(numParties int, cfg fl.Config, spec nn.ModelSpec, test *data.Dataset) (*fl.Result, error) {
	fed, err := newFederation(cfg, spec, test, numParties, s.ServerOptions)
	if err != nil {
		return nil, err
	}
	return fed.acceptAndRun(s.accept)
}

// accept waits for the next connection and frames it.
func (s *ServerListener) accept() (Conn, error) {
	c, err := s.l.Accept()
	if err != nil {
		return nil, err
	}
	return newFrameConn(c), nil
}

// acceptAndRun is AcceptAndRun's body over the conns next accepts.
func (f *Federation) acceptAndRun(next func() (Conn, error)) (*fl.Result, error) {
	stopAdmission, acceptErr := f.acceptHellos(next)
	// On every way out: first no handler is left that could seat or park a
	// conn, only then is every conn the table holds hung up on — so none
	// can be admitted that nobody will close. Once the run has booted, each
	// seated conn's sender said goodbye on its way out; before that nobody
	// did, and the teardown says it.
	defer func() {
		stopAdmission()
		f.table.shutdown(f.policy == nil)
	}()
	select {
	case <-f.table.full:
		// Late hellos are rejected as "federation already has N parties"
		// and never touch the table again. Acceptance continues — rejoin
		// hellos land in the queue until the run finishes.
	case err := <-acceptErr:
		return nil, err
	}
	return f.run()
}

// acceptHellos starts the accept loop: the hello of every connection next
// accepts is read on its own goroutine and put to f.admit. Filling the
// federation does NOT stop acceptance — the listener keeps reading hellos
// for the whole run, because a suspect party's rejoin arrives as a fresh
// connection (Rejoin=true hello, queued for the next round boundary). A
// failed Accept (the caller closed the listener) ends the loop and is
// reported on acceptErr. stop expires every still-reading hello and joins
// the handler goroutines: every verdict (a refusal "still silent when the
// run ended" included) is delivered before it returns, in microseconds —
// nothing waits out a timeout — and conns accepted after it are closed
// without an event.
func (f *Federation) acceptHellos(next func() (Conn, error)) (stop func(), acceptErr <-chan error) {
	helloTimeout := f.helloTimeout
	if helloTimeout <= 0 {
		helloTimeout = 10 * time.Second
	}
	var (
		failed = make(chan error, 1)
		// Hello reads are concurrent but bounded: each in-flight read may
		// hold up to a helloFrameLimit buffer plus an fd and a goroutine,
		// so an unbounded fan-out would let an attacker pin O(conns) of
		// all three by opening sockets and trickling bytes — the serial
		// loop's implicit one-at-a-time bound, kept, just widened. The
		// slot is acquired BEFORE Accept: conns beyond the bound are
		// never accepted and wait in the listener's backlog (the kernel's,
		// or a blocked in-memory dial), holding no fd, goroutine or buffer
		// in this process. k bad conns now stall admission by
		// ceil(k/maxConcurrentHellos) timeouts instead of k, and a hello
		// deadline starts only once its conn is accepted.
		sem = make(chan struct{}, maxConcurrentHellos)
		// pending tracks conns whose hello is still being read, so the
		// moment the run completes the remaining readers can be cut loose
		// (deadline-now) and joined — no verdict is delivered after
		// AcceptAndRun returns, and no hello goroutine outlives the call.
		handlers sync.WaitGroup
		pendMu   sync.Mutex
		pending  = make(map[Conn]struct{})
		closed   bool // set by stop
	)
	go func() {
		for {
			sem <- struct{}{}
			c, err := next()
			if err != nil {
				failed <- err
				return
			}
			pendMu.Lock()
			if closed {
				// The run is over: close stray conns without an event
				// (the Events contract: none after AcceptAndRun returns).
				pendMu.Unlock()
				_ = c.Close()
				<-sem
				continue
			}
			pending[c] = struct{}{}
			handlers.Add(1)
			pendMu.Unlock()
			go func(c Conn) {
				defer handlers.Done()
				defer func() { <-sem }()
				_ = c.SetReadDeadline(time.Now().Add(helloTimeout))
				cc := NewCountingConn(c)
				// Nothing about a hello justifies a big frame: reject
				// hostile length prefixes before the token check can run.
				cc.SetRecvLimit(helloFrameLimit)
				// The read happens outside any lock: a silent conn burns
				// its own timeout without queueing anyone behind it.
				h, err := readHello(cc)
				party := h.ID
				if err != nil {
					party = -1
				}
				// No longer reading: leave pending before admission, so
				// the end-of-run sweep can never touch an admitted party's
				// deadline.
				pendMu.Lock()
				delete(pending, c)
				pendMu.Unlock()
				if err == nil {
					// Clear the hello deadline BEFORE admitting: the
					// instant the last party is seated, the round engine
					// may start using this conn — including setting
					// RoundTimeout deadlines from its receiver goroutine —
					// and a late clear from here would erase them. A
					// parked rejoin's conn belongs to the scheduler the
					// same way.
					_ = c.SetReadDeadline(time.Time{})
					err = f.admit(cc, h)
				}
				if err != nil {
					_ = cc.Close()
					f.emit(Refused, party, 0, 0, err)
				}
			}(c)
		}
	}()
	return func() {
		pendMu.Lock()
		closed = true
		//lint:allow detercheck expiring pending hello deadlines is order-independent: every conn gets the same instant and none feeds a fold
		for c := range pending {
			_ = c.SetReadDeadline(time.Now())
		}
		pendMu.Unlock()
		handlers.Wait()
	}, failed
}

// readHello reads and decodes one hello frame from c. Version skew and a
// bad magic byte surface here, from the codec, as descriptive errors —
// never as a misaligned decode of the fields behind the version byte.
func readHello(c *CountingConn) (HelloMsg, error) {
	raw, err := c.Recv()
	if err != nil {
		return HelloMsg{}, fmt.Errorf("simnet: hello recv: %w", err)
	}
	decoded, err := Unmarshal(raw)
	if err != nil {
		return HelloMsg{}, fmt.Errorf("simnet: hello decode: %w", err)
	}
	h, ok := decoded.(HelloMsg)
	if !ok {
		return HelloMsg{}, fmt.Errorf("simnet: expected hello, got %T", decoded)
	}
	return h, nil
}

// admit is the admission rule: it judges one decoded hello, arriving on c,
// against the table, and either seats the party, parks the conn as a
// rejoin, or returns why the hello is refused (the caller closes c and
// reports the refusal). A seated or parked hello is reported here.
//
//	hello    party ID's seat                  outcome
//	fresh    empty                            seated
//	fresh    taken                            refused: duplicate
//	fresh    taken, as are all the others     refused: already has N parties
//	rejoin   taken, alive or suspect          parked for the round boundary
//	                                          (replacing an older parked rejoin)
//	rejoin   taken, evicted                   refused: evicted
//	rejoin   empty, server has a Resume       resynced, then seated
//	rejoin   empty, no Resume                 refused: no session to rejoin
//
// A rejoin hello from a party this process never seated is a first
// contact when the server was restored from a snapshot: the survivors of
// the previous incarnation redial with Rejoin=true, but this process has
// no session for them.
func (f *Federation) admit(c *CountingConn, h HelloMsg) error {
	n := len(f.table.members)
	rejoin := h.Rejoin && (f.Resume == nil || f.table.get(h.ID).conn != nil)
	who, whoID := "party", "party ID"
	if rejoin {
		who, whoID = "rejoining party", "rejoin from party ID"
	}
	switch {
	case h.ID < 0 || h.ID >= n:
		return fmt.Errorf("simnet: %s %d out of range [0,%d)", whoID, h.ID, n)
	case f.Token != "" && subtle.ConstantTimeCompare([]byte(h.Token), []byte(f.Token)) != 1:
		return fmt.Errorf("simnet: %s %d presented a bad token", who, h.ID)
	case h.N < 0:
		return fmt.Errorf("simnet: %s %d reported negative dataset size %d", who, h.ID, h.N)
	}
	// What the party becomes once seated. A peer that cannot decode the
	// configured codec is still admitted, it just rides the raw wire.
	m := member{id: h.ID, conn: c, meta: fl.UpdateMeta{N: h.N, Tau: fl.PredictTau(f.Cfg, h.N)},
		dist: sanitizeDist(h.LabelDist), codec: wireCodec(f.Cfg.Codec)}
	if h.Codecs&(1<<m.codec) == 0 {
		m.codec = wireCodecF64
	}
	if rejoin {
		if err := f.table.queueRejoin(m); err != nil {
			return err
		}
		f.emit(RejoinQueued, m.id, 0, 0, nil)
		// The scheduler installs it at the next round boundary — or at
		// once, when it heals a failed broadcast.
		f.changed()
		return nil
	}
	return f.seat(&m, h.Rejoin, true)
}

// seat puts m's party on m.conn. After a rejoin hello (resync) the
// ResyncMsg the party is waiting for goes out first — the party's tracked
// SCAFFOLD c_i (see the ResyncMsg contract) — so the party's next frame is
// the round broadcast it now has the state to handle, and only then does
// the table point at the conn. A failed send therefore leaves the table
// as it was: the party stays suspect (or unseated) and may dial again.
// claim marks a first contact, which must find its seat empty. The seated conn is reported — Admitted, or Resynced
// at the table's round stamp — before the last seat taken lets the run
// start, so every admission is reported before the first generation ships.
func (f *Federation) seat(m *member, resync, claim bool) error {
	kind, gen := Admitted, 0
	if resync {
		var rm ResyncMsg
		gen, rm.Control = f.table.resync(m.id)
		enc, err := Marshal(rm)
		if err == nil {
			err = m.conn.Send(enc)
		}
		if err != nil {
			// Refused only on a restored server's first contacts; a failed
			// boundary install just leaves the party out.
			return fmt.Errorf("simnet: restored-server resync to party %d: %w", m.id, err)
		}
		kind = Resynced
	}
	filled, err := f.table.install(m, claim)
	if err != nil {
		return err
	}
	f.emit(kind, m.id, m.ord, gen, nil)
	if filled {
		close(f.table.full)
	}
	return nil
}

// helloFrameLimit bounds a hello frame: ID + size + a maxTokenLen token +
// a label distribution of up to ~128k classes fit comfortably in 1 MiB.
const helloFrameLimit = 1 << 20

// maxConcurrentHellos bounds how many accepted-but-unadmitted connections
// exist at once — and with them the in-flight hello reads — capping
// pre-admission fds, goroutines and buffer memory (at most 64 x
// helloFrameLimit = 64 MiB of the latter) no matter how many connections
// arrive; the rest queue in the listener's backlog.
const maxConcurrentHellos = 64

// sanitizeDist clamps a wire-supplied label distribution to finite,
// non-negative mass so a single party can never poison the stratified
// sampler's k-means with NaN or infinite coordinates. An empty dataset's
// (all-zero or empty) distribution passes through unchanged — the
// stratifier zero-pads dimensions.
func sanitizeDist(d []float64) []float64 {
	for i, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			d[i] = 0
		}
	}
	return d
}
