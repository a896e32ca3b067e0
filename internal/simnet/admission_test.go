package simnet

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
)

// admissionDriver puts hellos to one federation's admission rule through
// the accept loop, on one listener: a hello's verdict is the one Refused,
// Admitted, RejoinQueued or Resynced event the loop reports for it.
type admissionDriver struct {
	t        *testing.T
	fed      *Federation
	ln       *ServerListener
	dial     func() (net.Conn, error)
	stop     func()
	verdicts chan Event
}

func newAdmissionDriver(t *testing.T, fed *Federation, ln *ServerListener, dial func() (net.Conn, error)) *admissionDriver {
	// verdicts has room for the Resynced events of a row's boundary
	// installs, which no hello waits for.
	d := &admissionDriver{t: t, fed: fed, ln: ln, dial: dial, verdicts: make(chan Event, 16)}
	fed.Events = func(e Event) {
		switch e.Kind {
		case Refused, Admitted, RejoinQueued, Resynced:
			d.verdicts <- e
		}
	}
	d.stop, _ = fed.acceptHellos(ln.accept)
	return d
}

// hello delivers the hello frame b on a fresh conn and returns the party
// end plus the rule's verdict: why it was refused, nil when it was seated
// or parked. With dead the party hangs up once its hello has been read, so
// the server's next send on the conn fails. An accepted conn's frames are
// read as they arrive, as a socket's receive buffer would take them, so a
// server send never waits for the test to ask.
func (d *admissionDriver) hello(b []byte, dead bool) (Conn, error) {
	c, err := d.dial()
	if err != nil {
		d.t.Fatal(err)
	}
	conn := newFrameConn(c)
	if err := conn.Send(b); err != nil {
		d.t.Fatal(err)
	}
	if dead {
		_ = conn.Close()
	} else {
		conn = newMailbox(conn)
	}
	select {
	case e := <-d.verdicts:
		return conn, e.Err
	case <-time.After(10 * time.Second):
		d.t.Fatalf("hello % x: no verdict", b)
		return nil, nil
	}
}

func (d *admissionDriver) close() {
	_ = d.ln.Close()
	d.stop()
	d.fed.table.shutdown(true)
}

// mailbox is a party end whose frames a goroutine reads as they arrive,
// until the conn ends; Recv hands them over in order. An admission test
// sends a party at most a ResyncMsg and a goodbye, so the reader never
// waits on a full buffer.
type mailbox struct {
	Conn
	got chan received
}

type received struct {
	b   []byte
	err error
}

func newMailbox(c Conn) *mailbox {
	m := &mailbox{Conn: c, got: make(chan received, 16)}
	go func() {
		for {
			b, err := c.Recv()
			m.got <- received{append([]byte(nil), b...), err}
			if err != nil {
				return
			}
		}
	}()
	return m
}

func (m *mailbox) Recv() ([]byte, error) {
	r := <-m.got
	return r.b, r.err
}

// TestAdmissionTable is the admission rule as a table — hello kind x what
// the table holds for that party → outcome, error type and resulting table
// state — run through the one accept loop on both listeners: in-memory
// pipes and TCP. Each row plays its hellos, in order, against a fresh
// three-party federation with a token.
func TestAdmissionTable(t *testing.T) {
	const token = "s3cret"
	type hello struct {
		h HelloMsg
		// before runs against the federation ahead of the hello (evicting a
		// party, say).
		before func(f *Federation)
		// dead makes the server's sends on the conn fail, as toward a peer
		// that died right after its hello. Pipes only: a pipe whose peer
		// hung up refuses every send, while a TCP peer's death is not
		// reliably observable on the first write.
		dead bool
		// direct hands the decoded hello to the rule without a wire: only a
		// 32-bit host can decode a negative size.
		direct bool
		// wantErr is a substring of the refusal ("" = accepted).
		wantErr string
		// settled is the table state an accepted hello must produce.
		settled func(f *Federation) bool
	}
	fresh := func(id int) HelloMsg { return HelloMsg{ID: id, N: 10, Token: token, LabelDist: []float64{1}} }
	rejoin := func(id int) HelloMsg { h := fresh(id); h.Rejoin = true; return h }
	seated := func(id int) func(*Federation) bool {
		return func(f *Federation) bool { return f.table.get(id).conn != nil }
	}
	queued := func(n int) func(*Federation) bool {
		return func(f *Federation) bool {
			f.table.mu.Lock()
			defer f.table.mu.Unlock()
			return len(f.table.rejoins) == n
		}
	}
	seat := func(id int) hello { return hello{h: fresh(id), settled: seated(id)} }
	evict := func(id int, permanent bool) func(*Federation) {
		return func(f *Federation) { f.evict(id, nil, permanent, errors.New("test")) }
	}
	snapshot := &fl.FederationSnapshot{NumParties: 3, Round: 7, PartyControl: [][]float64{{1, 2}, nil, nil}}

	rows := []struct {
		name     string
		opts     ServerOptions
		hellos   []hello
		pipeOnly bool
		// after inspects the table once every hello has played.
		after func(t *testing.T, f *Federation, partyEnds []Conn)
	}{
		{name: "fresh", hellos: []hello{seat(0)},
			after: func(t *testing.T, f *Federation, _ []Conn) {
				m := f.table.get(0)
				if !m.alive() || m.codec != wireCodecF64 || m.meta.N != 10 || m.meta.Tau != fl.PredictTau(f.Cfg, 10) {
					t.Fatalf("seated party: %+v", m)
				}
			}},
		{name: "duplicate", hellos: []hello{seat(0), {h: fresh(0), wantErr: "duplicate hello from party 0"}}},
		{name: "out of range", hellos: []hello{{h: fresh(3), wantErr: "party ID 3 out of range [0,3)"}}},
		// The wire carries IDs and sizes as uint32, so a negative one arrives
		// huge on a 64-bit host.
		{name: "negative ID", hellos: []hello{{h: fresh(-1), wantErr: "out of range [0,3)"}}},
		{name: "bad token", hellos: []hello{{h: HelloMsg{ID: 0, N: 10, Token: "wrong"}, wantErr: "party 0 presented a bad token"}}},
		{name: "negative N", hellos: []hello{{h: HelloMsg{ID: 0, N: -4, Token: token}, direct: true, wantErr: "party 0 reported negative dataset size -4"}}},
		{name: "unsanitised label dist",
			hellos: []hello{{h: HelloMsg{ID: 1, N: 10, Token: token, LabelDist: []float64{math.NaN(), math.Inf(1), -3, 0.5}}, settled: seated(1)}},
			after: func(t *testing.T, f *Federation, _ []Conn) {
				if d := f.table.get(1).dist; len(d) != 4 || d[0] != 0 || d[1] != 0 || d[2] != 0 || d[3] != 0.5 {
					t.Fatalf("admitted label distribution not sanitized: %v", d)
				}
			}},
		{name: "rejoin of alive party", hellos: []hello{seat(0), {h: rejoin(0), settled: queued(1)}},
			after: func(t *testing.T, f *Federation, _ []Conn) {
				if !f.table.get(0).alive() {
					t.Fatal("a parked rejoin must not touch the seated conn before the round boundary")
				}
			}},
		{name: "rejoin of suspect party", hellos: []hello{seat(0), {h: rejoin(0), before: evict(0, false), settled: queued(1)}},
			after: func(t *testing.T, f *Federation, ends []Conn) {
				if got := f.installQueuedRejoins(nil); len(got) != 1 || got[0].id != 0 {
					t.Fatalf("boundary install restored %v", got)
				}
				if !f.table.get(0).alive() {
					t.Fatal("installed rejoin left the party suspect")
				}
				// The rejoined conn got its ResyncMsg first.
				raw, err := recvWithin(t, ends[1])
				if err != nil {
					t.Fatal(err)
				}
				m, err := Unmarshal(raw)
				if _, ok := m.(ResyncMsg); err != nil || !ok {
					t.Fatalf("resync: %v %v", m, err)
				}
			}},
		{name: "rejoin of evicted party",
			hellos: []hello{seat(0), {h: rejoin(0), before: evict(0, true), wantErr: "party 0 was evicted: rejoin refused"}}},
		{name: "rejoin of never-seen party", hellos: []hello{{h: rejoin(0), wantErr: "party 0 has no session to rejoin"}}},
		{name: "rejoin with a bad token", hellos: []hello{seat(0), {h: HelloMsg{ID: 0, N: 10, Rejoin: true}, wantErr: "rejoining party 0 presented a bad token"}}},
		{name: "rejoin superseding a queued rejoin",
			hellos: []hello{seat(0), {h: rejoin(0), settled: queued(1)}, {h: rejoin(0), settled: queued(1)}},
			after: func(t *testing.T, f *Federation, ends []Conn) {
				// The superseded conn was hung up on (which also says the
				// second rejoin has been judged); the newer one is the one
				// that gets installed.
				if _, err := recvWithin(t, ends[1]); err == nil {
					t.Fatal("superseded rejoin conn still open")
				}
				if got := f.installQueuedRejoins(nil); len(got) != 1 || !queued(0)(f) {
					t.Fatalf("installed %v", got)
				}
				if _, err := recvWithin(t, ends[2]); err != nil {
					t.Fatalf("newest rejoin conn got no resync: %v", err)
				}
			}},
		{name: "restored-server rejoin", opts: ServerOptions{Resume: snapshot},
			hellos: []hello{{h: rejoin(0), settled: seated(0)}},
			after: func(t *testing.T, f *Federation, ends []Conn) {
				raw, err := recvWithin(t, ends[0])
				if err != nil {
					t.Fatal(err)
				}
				m, err := Unmarshal(raw)
				if rm, ok := m.(ResyncMsg); err != nil || !ok || len(rm.Control) != 2 || rm.Control[1] != 2 {
					t.Fatalf("restored-server resync: %+v %v", m, err)
				}
				// The snapshot's round stamps the Resynced event.
				if gen, _ := f.table.resync(0); gen != 7 {
					t.Fatalf("restored-server round stamp %d, want the snapshot's 7", gen)
				}
			}},
		{name: "restored-server rejoin, resync send fails", opts: ServerOptions{Resume: snapshot}, pipeOnly: true,
			hellos: []hello{
				{h: rejoin(0), dead: true, wantErr: "restored-server resync to party 0"},
				// The seat was never taken, so the redial gets it.
				{h: rejoin(0), settled: seated(0)},
			}},
		{name: "hello after the federation filled",
			hellos: []hello{seat(0), seat(1), seat(2),
				{h: fresh(1), wantErr: "federation already has 3 parties"},
				{h: fresh(9), wantErr: "party ID 9 out of range [0,3)"},
				{h: rejoin(1), settled: queued(1)}},
			after: func(t *testing.T, f *Federation, _ []Conn) {
				select {
				case <-f.table.full:
				default:
					t.Fatal("full federation never signalled its start")
				}
			}},
	}
	listeners := map[string]func(t *testing.T) (*ServerListener, func() (net.Conn, error)){
		"pipes": func(*testing.T) (*ServerListener, func() (net.Conn, error)) { return listenMem() },
		"tcp": func(t *testing.T) (*ServerListener, func() (net.Conn, error)) {
			ln := mustListen(t)
			return ln, func() (net.Conn, error) { return net.Dial("tcp", ln.Addr()) }
		},
	}
	for dname, listen := range listeners {
		for _, row := range rows {
			if row.pipeOnly && dname != "pipes" {
				continue
			}
			t.Run(dname+"/"+row.name, func(t *testing.T) {
				opts := row.opts
				opts.Token = token
				fed, err := newFederation(fl.Config{LocalEpochs: 1, BatchSize: 32}, nn.ModelSpec{}, nil, 3, opts)
				if err != nil {
					t.Fatal(err)
				}
				ln, dial := listen(t)
				d := newAdmissionDriver(t, fed, ln, dial)
				defer d.close()
				// held is what a refused hello must leave exactly as it was.
				held := func() [2]int {
					fed.table.mu.Lock()
					defer fed.table.mu.Unlock()
					return [2]int{fed.table.seats, len(fed.table.rejoins)}
				}
				var ends []Conn
				for i, h := range row.hellos {
					if h.before != nil {
						h.before(fed)
					}
					was := held()
					var end Conn
					var err error
					if h.direct {
						var serverSide Conn
						serverSide, end = pipe()
						err = fed.admit(NewCountingConn(serverSide), h.h)
					} else {
						b, merr := Marshal(h.h)
						if merr != nil {
							t.Fatal(merr)
						}
						end, err = d.hello(b, h.dead)
					}
					ends = append(ends, end)
					switch {
					case h.wantErr == "" && err != nil:
						t.Fatalf("hello %d refused: %v", i, err)
					case h.wantErr == "" && h.settled != nil && !h.settled(fed):
						t.Fatalf("hello %d accepted but the table does not show it", i)
					case h.wantErr != "" && (err == nil || !strings.Contains(err.Error(), h.wantErr)):
						t.Fatalf("hello %d: got %v, want an error containing %q", i, err, h.wantErr)
					case h.wantErr != "" && held() != was:
						t.Fatalf("refused hello %d changed the table: seats/parked %v -> %v", i, was, held())
					}
				}
				if row.after != nil {
					row.after(t, fed, ends)
				}
			})
		}
	}
}

// recvWithin is conn.Recv with a deadline no conn type has to support.
func recvWithin(t *testing.T, conn Conn) ([]byte, error) {
	t.Helper()
	type got struct {
		b   []byte
		err error
	}
	ch := make(chan got, 1)
	go func() {
		b, err := conn.Recv()
		ch <- got{b, err}
	}()
	select {
	case g := <-ch:
		return g.b, g.err
	case <-time.After(10 * time.Second):
		t.Fatal("nothing arrived and the conn stayed open")
		return nil, nil
	}
}

// TestAcceptFailureHangsUpOnAdmitted is the regression test for the
// orphaned-conn bug: when Accept fails before the federation fills — the
// operator closed the listener early — AcceptAndRun must hang up on the
// parties it already admitted instead of returning with their sockets
// open and unowned. A real party and a scripted one both hello as party 0
// of 2: the rule seats one and refuses the other as a duplicate, which is
// the test's signal that a seat is taken; then the listener closes, and
// both — in particular a dial with no HelloTimeout — must return promptly.
func TestAcceptFailureHangsUpOnAdmitted(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	ln := mustListen(t)
	seatTaken := make(chan struct{})
	var once sync.Once
	ln.Events = func(e Event) {
		if e.Kind == Refused && strings.Contains(e.Err.Error(), "duplicate hello") {
			once.Do(func() { close(seatTaken) })
		}
	}
	serveErr := make(chan error, 1)
	go func() {
		_, err := ln.AcceptAndRun(2, cfg, spec, test)
		serveErr <- err
	}()
	returned := make(chan string, 2)
	go func() {
		_ = DialPartyOpts(ln.Addr(), 0, locals[0], spec, cfg, PartySeed(cfg.Seed, 0), PartyOptions{})
		returned <- "dialed party"
	}()
	go func() {
		c, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		conn := newFrameConn(c)
		b, _ := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}})
		_ = conn.Send(b)
		for {
			if raw, err := conn.Recv(); err != nil || raw[0] == msgShutdown {
				returned <- "scripted party"
				return
			}
		}
	}()
	select {
	case <-seatTaken:
	case <-time.After(10 * time.Second):
		t.Fatal("neither hello was refused as a duplicate")
	}
	_ = ln.Close()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("AcceptAndRun returned no error after the listener closed under it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcceptAndRun did not return after the listener closed")
	}
	for i := 0; i < 2; i++ {
		select {
		case <-returned:
		case <-time.After(time.Second):
			t.Fatal("an admitted party is still blocked on a socket the server no longer owns")
		}
	}
}

// TestPartyLostBeforeHelloEndsRun is the regression test for the
// in-process harness waiting forever on a federation that can no longer
// fill: party 0 dies on its very first frame (its hello), with no rejoin,
// so its seat stays empty. The run must end promptly with an error — the
// parties already admitted hung up on — and report party 0's own error.
func TestPartyLostBeforeHelloEndsRun(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	plan := &FaultPlan{Seed: 1, DropProb: 1}
	party := func(i int) PartyOptions {
		if i == 0 {
			return PartyOptions{Faults: plan}
		}
		return PartyOptions{}
	}
	type outcome struct {
		partyErrs []error
		err       error
	}
	for name, run := range map[string]func() outcome{
		"tcp": func() outcome {
			_, partyErrs, err := RunLoopback(cfg, spec, locals, test, ServerOptions{}, party)
			return outcome{partyErrs, err}
		},
		"pipes": func() outcome {
			ln, dial := listenMem()
			_, partyErrs, err := federate(ln, dial, cfg, spec, locals, test, party)
			return outcome{partyErrs, err}
		},
	} {
		t.Run(name, func(t *testing.T) {
			done := make(chan outcome, 1)
			go func() { done <- run() }()
			select {
			case o := <-done:
				if o.err == nil {
					t.Fatal("a federation missing party 0 ran without error")
				}
				if len(o.partyErrs) != len(locals) || !errors.Is(o.partyErrs[0], errInjectedDrop) {
					t.Fatalf("party errors %v, want party 0's injected drop", o.partyErrs)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the run is still waiting for a party that is gone")
			}
		})
	}
}

// meterConn sits under a server-side CountingConn and tallies, into a
// counter shared by every conn of the run, the traffic the server's byte
// accounting is meant to cover: everything but first-contact hellos
// (setup, before round 0), the ShutdownMsg (after the last round) and a
// rejoin hello that was never answered (its conn was never installed).
type meterConn struct {
	Conn
	total *atomic.Int64
	held  int64 // a rejoin hello, uncounted until the server answers it
}

func (m *meterConn) Recv() ([]byte, error) {
	b, err := m.Conn.Recv()
	if err != nil {
		return b, err
	}
	if len(b) > 0 && b[0] == msgHello {
		if h, err := Unmarshal(b); err == nil && h.(HelloMsg).Rejoin {
			m.held = int64(len(b))
		}
		return b, nil
	}
	m.total.Add(int64(len(b)))
	return b, nil
}

func (m *meterConn) Send(b []byte) error {
	err := m.Conn.Send(b)
	if err == nil && b[0] != msgShutdown {
		m.total.Add(int64(len(b)) + m.held)
		m.held = 0
	}
	return err
}

// flapConn is a server end that flaps if its hello came from party id:
// once it has delivered an update's last frame, the next broadcast frame
// the server sends fails and kills the pipe. The party completes every
// round and loses its conn at the start of the next, always at the
// broadcast, so the heal window — not a race between the party's close and
// the server's send — decides the round.
type flapConn struct {
	Conn
	id int
	// armed is set by the hello read, before the conn is admitted and
	// handed to its receiver.
	armed   bool
	replied atomic.Bool
}

func (f *flapConn) Recv() ([]byte, error) {
	b, err := f.Conn.Recv()
	if err != nil {
		return b, err
	}
	m, derr := Unmarshal(b)
	switch m := m.(type) {
	case HelloMsg:
		f.armed = derr == nil && m.ID == f.id
	case UpdateChunkMsg:
		if f.armed && derr == nil && m.Last {
			f.replied.Store(true)
		}
	}
	return b, err
}

func (f *flapConn) Send(b []byte) error {
	if f.replied.Load() && b[0] == msgGlobalChunk {
		_ = f.Conn.Close()
		return errors.New("flapped")
	}
	return f.Conn.Send(b)
}

// TestFlappingPartyHoldsOneConn is the regression test for the conn leak:
// a party that loses its conn after every round and rejoins (flapping
// forever is fine as long as rounds keep landing) used to leave one dead
// conn per rejoin in the server's tables, each walked by every byte count
// and written a ShutdownMsg at teardown. The table holds one conn per
// party however often one flaps, the replaced conns' traffic is retired
// into a scalar, and the measured bytes still equal what the parties
// counted on their own ends.
func TestFlappingPartyHoldsOneConn(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 10
	cfg.ChunkSize = 64
	spec, _ := data.Model("adult")
	var fed *memFed
	fed = pipeFed(t, cfg, spec, test, len(locals), ServerOptions{RejoinGrace: 2 * time.Second,
		// While the run is live every flapper rejoin must be admitted;
		// only a redial the run's end cuts short is turned away.
		Events: func(e Event) {
			if e.Kind != Refused {
				return
			}
			fed.mu.Lock()
			live := !fed.done
			fed.mu.Unlock()
			if live {
				t.Errorf("rejoin refused: %v", e.Err)
			}
		}})
	cfg = fed.Cfg

	const flapper = 2
	var counted atomic.Int64
	// Every server end is metered; the flapper's ones flap.
	fed.wrap = func(c Conn) Conn { return &meterConn{Conn: &flapConn{Conn: c, id: flapper}, total: &counted} }
	rejoins := 0
	res, partyErrs, err := fed.federate(len(locals), func(i int) error {
		conn, err := fed.connect()
		if err != nil {
			return err
		}
		if i != flapper {
			defer conn.Close()
			return serveParty(conn, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
		}
		s, err := newPartySession(i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
		if err != nil {
			return err
		}
		for rejoining := false; ; rejoining = true {
			s.progressed = false
			err := s.run(conn, "", rejoining, 0)
			_ = conn.Close()
			if rejoining && s.progressed {
				rejoins++ // admitted and resynced
			}
			if err == nil {
				return nil
			}
			// A refused redial means the run is over and its listener
			// closed.
			if conn, err = fed.connect(); err != nil {
				return nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	reportErrs(t, partyErrs)
	if rejoins < 8 {
		t.Fatalf("only %d rejoins", rejoins)
	}
	for _, m := range res.Curve {
		if len(m.Dropped) != 0 {
			t.Fatalf("round %d dropped %v: the heal window should re-deliver the broadcast", m.Round, m.Dropped)
		}
	}
	held := 0
	for _, m := range fed.table.members {
		if m.conn != nil {
			held++
		}
	}
	if held != len(locals) || fed.table.retired == 0 {
		t.Fatalf("table holds %d conns for %d parties (retired bytes %d)", held, len(locals), fed.table.retired)
	}
	var sum int64
	for _, m := range res.Curve {
		sum += m.CommBytes
	}
	if sum != res.TotalCommBytes || sum != counted.Load() {
		t.Fatalf("round bytes sum to %d, TotalCommBytes %d, the conns carried %d", sum, res.TotalCommBytes, counted.Load())
	}
}

// slowHealConn is a server end for TestHealOutlastingGraceKeepsParty: on
// party id's first conn the round-1 broadcast fails and kills the conn;
// on the party's rejoined conn the first broadcast frame leaves only
// after delay, so the heal outlives the window that started it.
type slowHealConn struct {
	Conn
	id    int
	delay time.Duration
	// first and rejoined are set by the hello read, before the conn is
	// admitted and handed to its sender.
	first, rejoined bool
	slowed          bool
}

func (c *slowHealConn) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil && len(b) > 0 && b[0] == msgHello {
		if h, derr := Unmarshal(b); derr == nil && h.(HelloMsg).ID == c.id {
			c.first, c.rejoined = !h.(HelloMsg).Rejoin, h.(HelloMsg).Rejoin
		}
	}
	return b, err
}

func (c *slowHealConn) Send(b []byte) error {
	if len(b) > 0 && b[0] == msgGlobalChunk {
		m, _, err := parseGlobalChunk(b)
		switch {
		case err == nil && c.first && m.Round == 1:
			_ = c.Conn.Close()
			return errors.New("cut at the round-1 broadcast")
		case c.rejoined && !c.slowed:
			c.slowed = true
			time.Sleep(c.delay)
		}
	}
	return c.Conn.Send(b)
}

// TestHealOutlastingGraceKeepsParty is the regression test for a heal
// that outlives RejoinGrace: party 2 loses its conn at the round-1
// broadcast and rejoins at once, and its fresh conn takes four times the
// grace to ship the healed broadcast. The fresh sender owns the slot it
// claimed, so the round waits for its report instead of closing the heal
// window under it; the report used to land in the next round's slot, and
// the party's round-1 reply then read as a protocol violation that
// evicted a conforming party for good.
func TestHealOutlastingGraceKeepsParty(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.ChunkSize = 64
	const (
		healer = 2
		grace  = 100 * time.Millisecond
	)
	for _, tcp := range []bool{false, true} {
		name, build := "pipe", pipeFed
		if tcp {
			name, build = "tcp", tcpFed
		}
		t.Run(name, func(t *testing.T) {
			var events eventLog
			fed := build(t, cfg, spec, test, len(locals), ServerOptions{RejoinGrace: grace, Events: events.add})
			fed.wrap = func(c Conn) Conn { return &slowHealConn{Conn: c, id: healer, delay: 4 * grace} }
			cfg := fed.Cfg
			res, partyErrs, err := fed.federate(len(locals), func(i int) error {
				conn, err := fed.connect()
				if err != nil {
					return err
				}
				if i != healer {
					defer conn.Close()
					return serveParty(conn, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				}
				return serveRejoining(conn, fed.connect, i, locals[i], spec, cfg)
			})
			if err != nil {
				t.Fatal(err)
			}
			reportErrs(t, partyErrs)
			for _, e := range events.of(Evicted) {
				t.Errorf("party %d evicted for good: %v", e.Party, e.Err)
			}
			if len(res.Curve) != cfg.Rounds {
				t.Fatalf("%d rounds of %d", len(res.Curve), cfg.Rounds)
			}
			for _, m := range res.Curve[2:] {
				if len(m.Dropped) != 0 {
					t.Errorf("round %d dropped %v after the heal", m.Round, m.Dropped)
				}
			}
		})
	}
}
