package simnet

import (
	"fmt"
	"time"

	"github.com/niid-bench/niidbench/internal/rng"
)

// FaultPlan is a deterministic, seeded description of the network and
// process failures to inject into a federation — the offensive half of the
// robustness story, turning the scenario grid's most common real-world
// axis (failure) into a reproducible experiment dimension. A plan is
// evaluated per party: ForParty(id) derives an independent fault stream
// from Seed and the party ID, so the same (plan, party) pair always
// misbehaves identically — chaos runs are pinnable and bisectable — while
// different parties fail independently.
//
// The zero plan injects nothing; wrapping a conn with it is the identity.
type FaultPlan struct {
	// Seed drives every probabilistic decision; the same seed reproduces
	// the same fault schedule exactly. Zero means 1.
	Seed uint64
	// DropProb is the per-sent-frame probability that the connection is
	// killed instead (both directions die, as a TCP RST would), forcing
	// the server to evict the party mid-round and — when the party dials
	// with a rejoin policy — the party to back off and reconnect: flapping
	// emerges from repeated drops.
	DropProb float64
	// Latency and Jitter delay every sent frame by Latency plus a uniform
	// draw from [0, Jitter] — straggler and slow-link emulation. The delay
	// is injected on the sender's goroutine, so it also exercises the
	// server's per-conn backpressure and RoundTimeout handling.
	Latency, Jitter time.Duration
	// CorruptProb is the per-sent-frame probability that the frame's bytes
	// are mutated before transmission (a random bit flip, a garbage tag, or
	// a hostile length prefix — the live-adversary counterpart of the
	// FuzzDecodeMsg mutations). The receiver must reject the frame and
	// evict the sender; a corrupted frame must never corrupt the round.
	CorruptProb float64
	// TruncateProb is the per-sent-frame probability that only a prefix of
	// the frame is sent (mid-frame cut): the peer receives a syntactically
	// truncated message, then the conn dies.
	TruncateProb float64
	// Grace exempts each connection's first Grace sent frames from every
	// fault. Grace=1 shields the hello, so chaos stays aimed at round
	// traffic and a faulted no-rejoin party can never wedge admission by
	// dying before it ever introduced itself.
	Grace int
}

// Empty reports whether the plan injects no faults at all, so callers can
// skip wrapping entirely — and chaos harnesses can pin "empty plan ==
// no-fault run" bitwise.
func (p FaultPlan) Empty() bool {
	return p.DropProb == 0 && p.Latency == 0 && p.Jitter == 0 &&
		p.CorruptProb == 0 && p.TruncateProb == 0
}

// ForParty derives party id's deterministic fault stream from the plan.
func (p FaultPlan) ForParty(id int) *PartyFaults {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	// Distinct odd multiplier per party, mirroring the party-seed recipe,
	// so fault streams are independent across parties but fixed per party.
	return &PartyFaults{plan: p, r: rng.New(seed + uint64(id)*104729 + 7)}
}

// PartyFaults is one party's materialized fault stream: a FaultPlan plus
// the party's private RNG. Wrap the party's conn with Wrap. Not safe for
// concurrent use by multiple conns — derive one per connection attempt or
// reuse across a party's sequential reconnects (the stream continues,
// which is what makes a flap schedule deterministic across rejoins).
type PartyFaults struct {
	plan FaultPlan
	r    *rng.RNG
}

// Wrap returns conn with the party's faults injected on the send path (or
// conn itself when the plan is empty). Faults ride sends because the
// party side owns both directions of its link: killing the conn severs
// recv too, and corrupting uploads is the byzantine case the server must
// survive.
func (f *PartyFaults) Wrap(conn Conn) Conn {
	if f == nil || f.plan.Empty() {
		return conn
	}
	return &faultConn{Conn: conn, f: f}
}

// errInjectedDrop marks a connection killed by fault injection, so chaos
// harnesses can tell scheduled drops from real failures.
var errInjectedDrop = fmt.Errorf("simnet: connection killed by fault injection")

// faultConn injects a PartyFaults stream into a Conn's send path; the
// rest of the Conn — receives, deadlines, receive limits — is the inner
// conn's, so the protocol's defensive seams stay active underneath the
// chaos.
type faultConn struct {
	Conn
	f    *PartyFaults
	sent int
}

func (c *faultConn) Send(b []byte) error {
	p, r := c.f.plan, c.f.r
	if c.sent++; c.sent <= p.Grace {
		return c.Conn.Send(b)
	}
	if d := p.Latency + time.Duration(float64(p.Jitter)*r.Float64()); d > 0 {
		time.Sleep(d)
	}
	if p.DropProb > 0 && r.Float64() < p.DropProb {
		_ = c.Conn.Close()
		return errInjectedDrop
	}
	if p.TruncateProb > 0 && r.Float64() < p.TruncateProb && len(b) > 0 {
		cut := r.Intn(len(b))
		if err := c.Conn.Send(b[:cut]); err != nil {
			return err
		}
		// A truncated frame is indistinguishable from a dying sender; kill
		// the conn so both sides converge on "party lost" instead of the
		// peer stalling on a frame that will never complete.
		_ = c.Conn.Close()
		return errInjectedDrop
	}
	if p.CorruptProb > 0 && r.Float64() < p.CorruptProb && len(b) > 0 {
		b = corruptFrame(r, b)
	}
	return c.Conn.Send(b)
}

// corruptFrame returns a mutated copy of frame b — never b itself, so the
// caller's (reused) encode buffer is untouched. The mutation menu mirrors
// the FuzzDecodeMsg corpus: single bit flips deep in the payload, a
// swapped message tag, and a hostile length prefix.
func corruptFrame(r *rng.RNG, b []byte) []byte {
	out := append([]byte{}, b...)
	switch r.Intn(3) {
	case 0: // bit flip anywhere
		out[r.Intn(len(out))] ^= 1 << uint(r.Intn(8))
	case 1: // tag swap: decodes as the wrong message type
		out[0] = byte(1 + r.Intn(9))
	default: // hostile length prefix in the first vector-length field
		if len(out) >= 5 {
			for i := 1; i <= 4; i++ {
				out[i] = 0xFF
			}
		} else {
			out[r.Intn(len(out))] ^= 0xFF
		}
	}
	return out
}
