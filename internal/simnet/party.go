package simnet

import (
	"fmt"
	"net"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// This file is the party's half of the protocol: the session that outlives
// any one connection, its message loop, and the dial loop that redials and
// rejoins after transport loss.

// PartySeed is the training seed of party i in a federation seeded with
// seed. Every transport and every process derives it here — bitwise
// equality across transports rests on all of them drawing the same
// per-party streams.
func PartySeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 + 13 }

// partySession is one party's durable half of the protocol: the client
// (model, optimizer state, SCAFFOLD control, MOON history) and the reused
// wire buffers. It outlives any single connection, so a party that loses
// its conn and rejoins resumes with everything it had — the in-process
// mirror of what ResyncMsg restores for a party that lost the process.
type partySession struct {
	id     int
	cfg    fl.Config
	client *fl.Client
	frame  []byte // reused chunk-frame encode buffer
	// dl is the session's one downlink assembly buffer, reused across
	// rounds and reconnects: each broadcast is read into it whole, trained
	// on and answered before the next is read.
	dl    []float64
	hello HelloMsg // identity fields; Rejoin varies per attempt
	// progressed flips once a session receives its first server frame —
	// proof the server admitted this party, which is what makes a later
	// redial a rejoin rather than a first contact.
	progressed bool
	// cacheOn retains each trained round's reply (one extra state-length
	// vector) so that a re-broadcast of the same round — a restored server
	// redoing the round it lost, or a reply whose conn died mid-send — is
	// answered by replaying the identical bytes instead of retraining.
	// Local training is NOT idempotent (the batch-shuffle RNG, FedDyn's h
	// and SCAFFOLD's c_i all advance per call), so replay is what keeps a
	// crash-restarted run bitwise equal to the uninterrupted one. Enabled
	// for rejoin-capable sessions (DialPartyOpts with Rejoin).
	cacheOn bool
	cache   replyCache
}

// replyCache is one round's finished uplink, kept verbatim.
type replyCache struct {
	valid  bool
	round  int
	n, tau int
	loss   float64
	delta  []float64
	deltaC []float64
}

// store copies a trained update into the cache (reusing its buffers).
func (c *replyCache) store(round int, u fl.Update) {
	c.valid = true
	c.round = round
	c.n, c.tau, c.loss = u.N, u.Tau, u.TrainLoss
	c.delta = append(c.delta[:0], u.Delta...)
	if u.DeltaC != nil {
		c.deltaC = append(c.deltaC[:0], u.DeltaC...)
	} else {
		c.deltaC = nil
	}
}

func newPartySession(id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64) (*partySession, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	return &partySession{
		id:     id,
		cfg:    cfg,
		client: fl.NewClient(id, local, cfg.ResolveSpec(spec), rng.New(seed)),
		hello:  HelloMsg{ID: id, N: local.Len(), LabelDist: local.LabelDistribution()},
	}, nil
}

// run serves one connection's lifetime: hello (optionally a rejoin), then
// the round loop until shutdown or conn loss. helloTimeout, when positive,
// bounds how long the server may take to produce its first frame after
// the hello — the party-side mirror of the server's hello timeout, so a
// party dialing a hung server fails (and can redial) instead of blocking
// forever.
func (s *partySession) run(conn Conn, token string, rejoin bool, helloTimeout time.Duration) error {
	h := s.hello
	h.Token, h.Rejoin = token, rejoin
	hello, err := Marshal(h)
	if err != nil {
		return err
	}
	if err := conn.Send(hello); err != nil {
		return fmt.Errorf("simnet: party %d hello: %w", s.id, err)
	}
	// Bound every server frame before it is read: the largest legitimate
	// downlink is one frame carrying this party's whole stream — its state
	// plus, under SCAFFOLD, the server control; resyncs and shutdowns are
	// strictly smaller. The party side of the memory contract — a hostile
	// (or buggy) server cannot make a party allocate an arbitrary frame.
	stateLen, ctrlLen := s.client.StateCount(), 0
	if s.cfg.Algorithm == fl.Scaffold {
		ctrlLen = s.client.ParamCount()
	}
	conn.SetRecvLimit(recvLimitFor(stateLen + ctrlLen))
	if helloTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	}
	if rejoin {
		// The server's first frame on a rejoined conn is the ResyncMsg
		// restoring whatever per-party state the server tracks (the
		// SCAFFOLD control variate; see the ResyncMsg contract). It must
		// come before any round traffic.
		raw, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("simnet: party %d resync recv: %w", s.id, err)
		}
		msg, err := Unmarshal(raw)
		if err != nil {
			return fmt.Errorf("simnet: party %d resync decode: %w", s.id, err)
		}
		m, ok := msg.(ResyncMsg)
		if !ok {
			return fmt.Errorf("simnet: party %d expected resync, got %T", s.id, msg)
		}
		if s.client.ScaffoldControl() == nil {
			// Only a party that lost its local SCAFFOLD state (a restarted
			// process) adopts the server's tracked c_i. A live session's
			// own c_i chain is the exact value; the server's telescoped sum
			// of uploaded deltas equals it mathematically but not bitwise
			// after the first round, and overwriting would fork the run
			// from the never-dropped reference.
			s.client.SetScaffoldControl(m.Control)
		}
		s.progressed = true // the server honored the rejoin
	}
	// The round loop reads in line: one whole broadcast, its reply, the
	// next. A conn has exactly one sender and one receiver at all times,
	// and both are this goroutine.
	for {
		raw, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("simnet: party %d recv: %w", s.id, err)
		}
		// Any server frame proves admission, and the first one lifts the
		// hello deadline: round gaps are the server's RoundTimeout's
		// business, not the hello deadline's.
		s.progressed = true
		if helloTimeout > 0 {
			_ = conn.SetReadDeadline(time.Time{})
			helloTimeout = 0
		}
		g, shutdown, err := recvGlobal(conn, raw, stateLen, ctrlLen, &s.dl)
		if err != nil {
			return fmt.Errorf("simnet: party %d recv: %w", s.id, err)
		}
		if shutdown {
			return nil
		}
		if err := s.handleGlobal(conn, &g); err != nil {
			return err
		}
	}
}

// handleGlobal answers one complete round broadcast: a replay of the
// cached reply, or a fresh training pass.
func (s *partySession) handleGlobal(conn Conn, ig *incomingGlobal) error {
	if s.cacheOn && s.cache.valid && ig.Round == s.cache.round {
		// The server re-asked for a round this session already trained
		// — it restored from a checkpoint taken before our reply
		// landed, or our uplink died mid-send. Replay the cached reply
		// verbatim; retraining would advance the client's RNG and
		// per-algorithm state a second time and fork the run.
		// Quantization is deterministic, so re-encoding the cached float64
		// update produces bytes identical to the original reply.
		c := &s.cache
		u := fl.Update{N: c.n, Tau: c.tau, TrainLoss: c.loss, Delta: c.delta, DeltaC: c.deltaC}
		if err := s.sendUpdate(conn, ig, u); err != nil {
			return fmt.Errorf("simnet: party %d replay: %w", s.id, err)
		}
		return nil
	}
	p := s.client.TrainStream(ig.State, ig.Control, s.cfg)
	defer p.Release()
	if s.cacheOn {
		// Capture before streaming: even a reply that dies mid-send was
		// trained, and must be replayed (not retrained) when the round is
		// re-asked.
		s.cache.store(ig.Round, p.Update())
	}
	if err := s.sendUpdate(conn, ig, p.Update()); err != nil {
		return fmt.Errorf("simnet: party %d: %w", s.id, err)
	}
	return nil
}

// sendUpdate streams one update back as chunk frames of the
// server-requested size, in the wire codec the broadcast arrived in (the
// negotiated codec). Each frame serializes a view of u's vectors — for a
// fresh update, the client's pooled workspace — through one reused encode
// buffer, so the party never materializes a second state-length vector
// for the reply.
func (s *partySession) sendUpdate(conn Conn, ig *incomingGlobal, u fl.Update) error {
	total := len(u.Delta) + len(u.DeltaC)
	return fl.ChunkStream(u.Delta, u.DeltaC, ig.Chunk, func(offset int, chunk []float64) error {
		b, err := UpdateChunkMsg{
			Round: ig.Round, Offset: offset, Total: total,
			N: u.N, Tau: u.Tau, TrainLoss: u.TrainLoss,
			Last:  offset+len(chunk) == total,
			Codec: ig.codec, Chunk: chunk,
		}.appendTo(s.frame[:0])
		if err != nil {
			return err
		}
		s.frame = b
		return conn.Send(b)
	})
}

// PartyOptions configures a dialing party beyond the positional basics.
// The zero value is a plain party: no token, no hello timeout, no rejoin,
// no faults.
type PartyOptions struct {
	// Token is the shared secret presented in the hello (empty when the
	// server runs open).
	Token string
	// HelloTimeout bounds how long the server may take to produce its
	// first frame after this party's hello — the party-side mirror of
	// the server's hello timeout. Zero waits forever.
	HelloTimeout time.Duration
	// Rejoin makes the party survive transport loss: instead of returning
	// the error, it redials with capped jittered exponential backoff and
	// re-hellos under its old ID with the Rejoin flag, resuming with its
	// local model and optimizer state intact (plus whatever the server's
	// ResyncMsg restores). Only transport-level failures are retried; a
	// clean shutdown still ends the party.
	Rejoin bool
	// RejoinBackoff is the first redial delay (default 50ms); each failed
	// attempt doubles it up to RejoinBackoffMax (default 2s), with a
	// uniform jitter of up to half the current delay drawn from the
	// party's seed so flap storms decorrelate deterministically.
	RejoinBackoff, RejoinBackoffMax time.Duration
	// RejoinAttempts caps consecutive failed reconnects (default 10); any
	// session that makes progress resets the count. Negative means
	// unlimited.
	RejoinAttempts int
	// Faults, when non-nil and non-empty, wraps every connection with the
	// party's deterministic fault stream derived from the plan — the
	// chaos-injection hook. Faults and Rejoin compose: an injected conn
	// kill exercises the same redial path a real network fault would.
	Faults *FaultPlan
}

// DialPartyOpts connects a party to a TCP federation server and serves
// until shutdown, with the session — model, optimizer state, SCAFFOLD
// control, reused buffers — surviving reconnects when opts.Rejoin is set.
// The party introduces itself with a HelloMsg (identity, optional
// shared-secret token, dataset size, label distribution) so the server can
// authenticate it, weight its updates and sample stratified without ever
// seeing the raw data. Round replies are UpdateChunkMsg streams framed at
// the size the server's broadcast asked for. The party trains uncapped, as
// a party in a process of its own should; splitting cores among parties
// that share a process is the in-process harness's job (RunLocal,
// RunLoopback).
func DialPartyOpts(addr string, id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64, opts PartyOptions) error {
	return dialParty(func() (net.Conn, error) { return net.Dial("tcp", addr) }, id, local, spec, cfg, seed, tensor.Compute{}, opts)
}

// dialParty is DialPartyOpts over any transport: dial opens each of the
// party's connections — a TCP socket, or an in-memory listener's pipe —
// and cmp is the kernel compute budget the session trains under for its
// whole life (the zero Compute is uncapped).
func dialParty(dial func() (net.Conn, error), id int, local *data.Dataset, spec nn.ModelSpec, cfg fl.Config, seed uint64, cmp tensor.Compute, opts PartyOptions) error {
	s, err := newPartySession(id, local, spec, cfg, seed)
	if err != nil {
		return err
	}
	s.client.SetComputeBudget(cmp)
	// A rejoin-capable party keeps its last trained reply so a restored
	// server re-asking for that round gets the identical bytes back
	// instead of a second (RNG-advancing) training pass.
	s.cacheOn = opts.Rejoin
	var faults *PartyFaults
	if opts.Faults != nil && !opts.Faults.Empty() {
		faults = opts.Faults.ForParty(id)
	}
	backoff := opts.RejoinBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxBackoff := opts.RejoinBackoffMax
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	attempts := opts.RejoinAttempts
	if attempts == 0 {
		attempts = 10
	}
	// The backoff jitter gets its own stream so it never perturbs the
	// client's training RNG — rejoin timing must not change the math.
	jr := rng.New(seed + 0x9E3779B97F4A7C15)
	delay := backoff
	failed := 0
	rejoining := false
	for {
		var sessErr error
		c, err := dial()
		if err != nil {
			sessErr = err
		} else {
			conn := newFrameConn(c)
			if faults != nil {
				conn = faults.Wrap(conn)
			}
			s.progressed = false
			sessErr = s.run(conn, opts.Token, rejoining, opts.HelloTimeout)
			_ = c.Close()
			if sessErr == nil {
				return nil // clean shutdown
			}
			if s.progressed {
				// The server admitted (or resynced) us this session:
				// future hellos are rejoins, and the failure streak
				// resets — flapping forever is fine as long as rounds
				// keep landing.
				rejoining, failed, delay = true, 0, backoff
			}
		}
		if !opts.Rejoin {
			return sessErr
		}
		if failed++; attempts > 0 && failed > attempts {
			return fmt.Errorf("simnet: party %d gave up after %d failed reconnects: %w", id, failed-1, sessErr)
		}
		time.Sleep(delay + time.Duration(jr.Float64()*float64(delay/2)))
		if delay *= 2; delay > maxBackoff {
			delay = maxBackoff
		}
	}
}
