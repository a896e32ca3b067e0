package simnet

import (
	"fmt"
	"slices"
	"sync"

	"github.com/niid-bench/niidbench/internal/fl"
)

// partyState is one party's position in the membership machine: alive →
// suspect (transport loss: conn closed, later rounds skip it — but a rejoin
// hello under the old ID restores it) or alive → evicted (protocol
// violation: same removal, but rejoin is refused — a peer that framed
// garbage once is not re-trusted). One crashed party degrades round
// capacity rather than aborting the federation.
type partyState uint8

const (
	partyAlive   partyState = iota
	partySuspect            // transport loss; a rejoin hello restores it
	partyEvicted            // protocol violation; rejoin refused
)

// member is everything the server keeps about one party ID: what its
// latest hello said, the conn it is seated on, and where it stands.
type member struct {
	id    int
	conn  *CountingConn // nil until the party's first admission
	meta  fl.UpdateMeta // aggregation metadata from the latest hello
	dist  []float64     // sanitized label distribution from the latest hello
	state partyState
	// codec is the wire chunk codec negotiated at the latest (re)admission:
	// the configured Cfg.Codec when the hello advertised it, raw float64
	// otherwise.
	codec byte
	// control tracks the party's SCAFFOLD control variate c_i as the
	// running sum of its accepted control-delta uploads (c_i starts at
	// zero; each round's DeltaC = c_new − c_old). Nil until the first
	// control upload, nil forever for non-SCAFFOLD runs. It exists solely
	// to answer rejoins: a reconnecting party — even a restarted process
	// that lost everything — gets its exact c_i back in the ResyncMsg.
	// Updated in place under the table's lock, so a copy of the entry
	// (get, all) must not read it; resync and controls copy it out.
	control []float64
	// folded is 1 + the last async generation an update of this party was
	// accepted against (0: none yet); see firstFold.
	folded int
	// ord is the conn's ordinal: 1 for the party's first conn, plus one
	// for each conn a rejoin installed; 0 until installed.
	ord int
}

// alive reports whether the party is seated and in the federation.
func (m member) alive() bool { return m.conn != nil && m.state == partyAlive }

// partyTable is the federation's membership: one member per party ID, the
// rejoins waiting for a round boundary, and the byte totals of conns a
// rejoin replaced. It is shared by the scheduler goroutine, every conn's
// sender and receiver and the accept loop's hello handlers; its methods
// are the only code that takes mu, and none of them waits on a conn or
// takes another lock while holding it (the federation's connection loop
// takes its own lock first).
type partyTable struct {
	mu      sync.Mutex
	members []member
	seats   int // members with a conn
	// full is closed when the last seat is taken (see Federation.seat):
	// the accept loop's start signal, and a happens-before edge from every
	// admission to the run.
	full chan struct{}
	// rejoins are validated rejoin hellos — each the member its party
	// becomes — parked until the scheduler installs them.
	rejoins []member
	// retired is the traffic of replaced conns, so the table holds one conn
	// per party however often a party flaps and totalBytes stays exact.
	retired int64
	// round stamps the Resynced event: completed rounds (sync) or the
	// current generation (async).
	round int
}

// newPartyTable sizes the table; a non-nil snap seeds the round stamp and
// the tracked controls of the run being resumed.
func newPartyTable(numParties int, snap *fl.FederationSnapshot) *partyTable {
	t := &partyTable{members: make([]member, numParties), full: make(chan struct{})}
	if snap != nil {
		t.round = snap.Round
		for i, c := range snap.PartyControl {
			if i < numParties && c != nil {
				t.members[i].control = append([]float64(nil), c...)
			}
		}
	}
	return t
}

// get returns a copy of party id's entry — the zero member, which has no
// conn, for an ID out of range. Seats are never given back, so a conn seen
// once stays non-nil.
func (t *partyTable) get(id int) (m member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= 0 && id < len(t.members) {
		m = t.members[id]
	}
	return m
}

// all returns a copy of every entry, in ID order.
func (t *partyTable) all() []member {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]member(nil), t.members...)
}

// alive lists the parties currently in the federation, in ID order — the
// one walk behind the sampler's live mask, the async boot and shutdown
// lists and the async quorum count.
func (t *partyTable) alive() (live []member) {
	for _, m := range t.all() {
		if m.alive() {
			live = append(live, m)
		}
	}
	return live
}

// install seats m's party on m.conn, alive, carrying forward into m what
// the server tracks about the party across conns, and numbering the conn.
// With claim the seat must be empty (a first contact: refused when another
// conn took it first, or all of them are taken); without, m replaces
// whatever conn the party had, which is closed and its traffic retired.
// filled reports that m took the last empty seat.
func (t *partyTable) install(m *member, claim bool) (filled bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := &t.members[m.id]
	if old := cur.conn; old == nil {
		t.seats++
		filled = t.seats == len(t.members)
	} else if !claim {
		_ = old.Close()
		t.retired += old.Sent() + old.Received()
	} else if t.seats == len(t.members) {
		return false, fmt.Errorf("simnet: federation already has %d parties", t.seats)
	} else {
		return false, fmt.Errorf("simnet: duplicate hello from party %d", m.id)
	}
	m.control, m.folded, m.ord = cur.control, cur.folded, cur.ord+1
	*cur = *m
	return filled, nil
}

// evict moves party id out of the federation and closes its conn: to
// suspect, or to evicted when permanent — a party only ever moves further
// out (alive < suspect < evicted); a rejoin is what brings one back. A
// non-nil c must still be the party's installed conn — a goroutine of an
// already-replaced conn reports stale news. It returns the ordinal of the
// conn it closed, 0 when nothing changed (stale conn, or the party was
// already out that far).
func (t *partyTable) evict(id int, c *CountingConn, permanent bool) (ord int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, out := &t.members[id], partySuspect
	if permanent {
		out = partyEvicted
	}
	if m.conn == nil || (c != nil && m.conn != c) || m.state >= out {
		return 0
	}
	m.state = out
	_ = m.conn.Close()
	return m.ord
}

// queueRejoin parks m, the member a rejoin hello describes, until the
// scheduler installs it: at the next round boundary, or at once when it
// heals the party's failed broadcast. The federation may be mid-round,
// which is exactly why nothing is installed here. A queued rejoin for the same party is
// superseded (the party redialed again — perhaps its ResyncMsg wait timed
// out), and a rejoin while the party still looks alive is accepted too:
// the party knows its conn died before the server's next send would
// notice, and the swap at the round boundary closes the stale conn.
func (t *partyTable) queueRejoin(m member) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch cur := &t.members[m.id]; {
	case cur.conn == nil:
		return fmt.Errorf("simnet: party %d has no session to rejoin", m.id)
	case cur.state == partyEvicted:
		return fmt.Errorf("simnet: party %d was evicted: rejoin refused", m.id)
	}
	for i, r := range t.rejoins {
		if r.id == m.id {
			_ = r.conn.Close()
			t.rejoins[i] = m
			return nil
		}
	}
	t.rejoins = append(t.rejoins, m)
	return nil
}

// drainRejoins hands the parked rejoins keep accepts (nil: all of them)
// to the scheduler and leaves the rest parked.
func (t *partyTable) drainRejoins(keep func(id int) bool) (taken []member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rejoins = slices.DeleteFunc(t.rejoins, func(m member) bool {
		if keep == nil || keep(m.id) {
			taken = append(taken, m)
			return true
		}
		return false
	})
	return taken
}

// setRound moves the Resynced round stamp.
func (t *partyTable) setRound(round int) {
	t.mu.Lock()
	t.round = round
	t.mu.Unlock()
}

// resync returns the round stamp of party id's Resynced event and what
// its ResyncMsg carries: a copy of the party's tracked control variate.
func (t *partyTable) resync(id int) (round int, control []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.round, append([]float64(nil), t.members[id].control...)
}

// addControl advances party id's tracked control variate by one accepted
// upload: c_i += delta.
func (t *partyTable) addControl(id int, delta []float64) {
	if len(delta) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := &t.members[id]
	if m.control == nil {
		m.control = make([]float64, len(delta))
	}
	for k, d := range delta {
		m.control[k] += d
	}
}

// firstFold records, and reports whether, an async update from id trained
// against gen is the first one: a rejoining party replays its cached reply
// for the current generation — the right behavior toward a restarted
// server, which lost that fold — and a server that already folded it must
// not count it twice. False means discard the stream. Under the lock
// because the fresh conn's receiver can race a stale receiver finishing
// its final stream.
func (t *partyTable) firstFold(id, gen int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.members[id].folded == gen+1 {
		return false
	}
	t.members[id].folded = gen + 1
	return true
}

// controls copies every party's tracked control variate, for a snapshot.
func (t *partyTable) controls() [][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]float64, len(t.members))
	for i, m := range t.members {
		if m.control != nil {
			out[i] = append([]float64(nil), m.control...)
		}
	}
	return out
}

// totalBytes is all traffic the federation's conns ever carried.
func (t *partyTable) totalBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.retired
	for _, m := range t.members {
		if m.conn != nil {
			total += m.conn.Sent() + m.conn.Received()
		}
	}
	return total
}

// shutdown is the federation's one teardown, run on every way out of a
// serve: every conn the table holds — seated or parked as a rejoin — is
// closed, so no party is left blocked on a server that is gone. goodbye
// says no sender served the seated conns (the run never booted), so each
// first gets its best-effort ShutdownMsg from here; a sender writes its
// conn's one goodbye itself, and a second one would wait on a peer that
// has stopped reading.
func (t *partyTable) shutdown(goodbye bool) {
	bye, _ := Marshal(ShutdownMsg{})
	for _, m := range t.all() {
		if m.conn == nil {
			continue
		}
		if goodbye {
			_ = m.conn.Send(bye)
		}
		_ = m.conn.Close()
	}
	for _, m := range t.drainRejoins(nil) {
		_ = m.conn.Close()
	}
}
