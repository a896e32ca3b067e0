package fl

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// This file implements buffered-asynchronous aggregation (Config.AsyncBuffer):
// the FedBuff-style relaxation of the synchronous round. The server folds
// updates the moment they arrive, each weighted by a staleness discount
// s(tau) = 1/(1+tau)^stalenessExponent where tau is how many global
// generations behind the update's base model is, and mints a new global
// generation every AsyncBuffer folds instead of barriering on the sampled
// set. A generation plays the role a round plays in the synchronous engine:
// it is the unit of metrics, evaluation cadence and checkpointing, and the
// run completes after Config.Rounds generations.
//
// Unlike the synchronous path, async runs are not bitwise reproducible —
// the fold order is the arrival order, which depends on scheduling — so
// they are characterized statistically (accuracy-vs-generations,
// accuracy-vs-wall-clock), the way the paper characterizes its algorithms.

// AsyncTransport is implemented by transports that can drive the
// buffered-async mode: RunAsync pushes every arriving update into the
// coordinator (from any number of receiver goroutines) and rebroadcasts
// the global after each flush but the final one (see CopyGlobal),
// returning once the coordinator reports the run complete or the
// federation is lost.
type AsyncTransport interface {
	// PartyMeta returns the aggregation metadata of party id.
	PartyMeta(id int) UpdateMeta
	// RunAsync feeds updates into the coordinator until Done.
	RunAsync(c *AsyncCoordinator) error
}

// AsyncStats summarizes a buffered-async run: how many updates folded, how
// stale they were, and how many arrived too stale or malformed to use.
type AsyncStats struct {
	// Folds is the number of updates folded into flushes.
	Folds int
	// MeanStaleness and MaxStaleness describe the generation lag
	// distribution over all folded updates.
	MeanStaleness float64
	MaxStaleness  int
	// FairnessDropped counts updates discarded by the per-party fairness
	// cap (asyncFairShare): a fast party that already contributed
	// its share of the open buffer window has its surplus folds dropped so
	// one party cannot dominate a generation.
	FairnessDropped int
}

// AsyncCoordinator serializes the buffered-async aggregation: transports
// call Fold from their receiver goroutines as updates complete, and the
// coordinator owns the flush schedule and staleness weighting. The fold
// and apply arithmetic is the Server's, the generation's books the
// engine's ledger. All methods are safe for concurrent use.
type AsyncCoordinator struct {
	e   *Engine
	led *ledger
	mu  sync.Mutex

	gen    int  // completed flushes == current global generation
	done   bool // gen reached Config.Rounds
	failed error
	// buffer is the effective flush threshold: Config.AsyncBuffer clamped
	// to the party count, because each party contributes at most one
	// update per generation it receives — a threshold above the
	// population could never fill.
	buffer int

	// Flush-buffer books, reset every AsyncBuffer folds (the weight sums
	// live in the Server's accumulator).
	buffered int
	loss     float64
	ids      []int
	lastAt   time.Time

	// live is the transport's last-reported live party count (SetLive),
	// which floors the fairness cap: cap x live must cover the buffer or a
	// depleted federation could never flush. Starts at the full population.
	live int

	stats AsyncStats
	meter byteMeter
}

func newAsyncCoordinator(e *Engine, tr AsyncTransport) *AsyncCoordinator {
	c := &AsyncCoordinator{e: e, led: e.newLedger(), gen: e.startRound, lastAt: time.Now()}
	if bm, ok := tr.(byteMeter); ok {
		c.meter = bm
	}
	c.done = c.gen >= e.cfg.Rounds
	c.buffer = e.cfg.AsyncBuffer
	if n := e.numParties; n > 0 && c.buffer > n {
		c.buffer = n
	}
	c.live = e.numParties
	e.server.resetAccumulator()
	return c
}

// Generation returns the current global generation (the number of
// completed flushes).
func (c *AsyncCoordinator) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Done reports whether the run has minted its final generation.
func (c *AsyncCoordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// Failed returns the error that poisoned the run (a flush-boundary
// checkpoint failure), or nil. Transports use it to stop feeding a run
// that can no longer complete.
func (c *AsyncCoordinator) Failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// CopyGlobal copies the current global state (and SCAFFOLD control
// variate; nil otherwise) into state and control, reusing their capacity,
// for broadcast to the parties, and returns the copies with the generation
// they belong to and whether it is the run's final one — which no party
// needs to train against. Reporting done with the copy, under one lock,
// lets a transport that snapshots after a flush tell whether another
// flush completed the run in between. A transport that refills the same
// buffers every generation allocates nothing here.
func (c *AsyncCoordinator) CopyGlobal(state, control []float64) (gen int, st, ctl []float64, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st = append(state[:0], c.e.server.State()...)
	if sc := c.e.server.Control(); sc != nil {
		ctl = append(control[:0], sc...)
	}
	return c.gen, st, ctl, c.done
}

// stalenessExponent is a in the staleness discount s(tau) = 1/(1+tau)^a:
// square-root decay, the common FedBuff setting. ConfigFingerprint mixes
// it, so changing it invalidates every existing snapshot.
const stalenessExponent = 0.5

// staleness returns the discount s(tau) = 1/(1+tau)^a.
func (c *AsyncCoordinator) staleness(tau int) float64 {
	return 1 / math.Pow(1+float64(tau), stalenessExponent)
}

// SetLive informs the coordinator of the transport's current live party
// count, which the fairness cap uses as its floor (see fairShareCap).
// Counts of zero or below are ignored — a momentarily empty federation
// must not freeze the cap at an unusable value.
func (c *AsyncCoordinator) SetLive(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.live = n
	c.mu.Unlock()
}

// asyncFairShare caps how many of one generation's AsyncBuffer folds a
// single party may contribute, so a fast party's discounted updates
// cannot dominate the global between broadcasts. Over-cap arrivals are
// dropped, not queued: the party retrains against the next generation it
// receives, which is fresher anyway. Mixed by ConfigFingerprint.
const asyncFairShare = 1

// fairShareCap is the per-party fold limit within the open buffer window:
// asyncFairShare, floored by ceil(buffer/live) so the surviving parties
// can always fill a window between them — the cap slows a fast party down
// relative to the window, it never deadlocks the flush schedule. Called
// with mu held.
func (c *AsyncCoordinator) fairShareCap() int {
	limit := asyncFairShare
	if c.live > 0 {
		if floor := (c.buffer + c.live - 1) / c.live; floor > limit {
			limit = floor
		}
	}
	return limit
}

// countID counts id's occurrences in the open window's fold roster.
func countID(ids []int, id int) int {
	n := 0
	for _, v := range ids {
		if v == id {
			n++
		}
	}
	return n
}

// Fold folds one complete update that trained against generation
// trainedGen into the open flush buffer. It returns flushed=true when this
// fold closed a buffer and minted a new generation (the transport should
// then rebroadcast the global, copied by CopyGlobal, unless that reports
// the run done: another flush may land first), and done=true once the run has
// completed all configured generations — folds after that are ignored.
// A non-nil error means the update was rejected (malformed, or from a
// future generation) and the transport should evict its party; the run
// itself is not poisoned. The update goes through the Server's one fold,
// which reads its vectors during the call only.
func (c *AsyncCoordinator) Fold(id int, u Update, trainedGen int) (flushed, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return false, true, nil
	}
	if c.failed != nil {
		return false, true, c.failed
	}
	if trainedGen < 0 || trainedGen > c.gen {
		return false, false, fmt.Errorf("fl: async update trained against generation %d, current is %d", trainedGen, c.gen)
	}
	// Per-party fairness: a party that already contributed its share of
	// this buffer window is dropped silently (not an error — the party did
	// nothing wrong, it is just fast), so one 10x-faster party cannot crowd
	// a generation with its own updates and starve the slow parties'
	// influence on the model.
	if limit := c.fairShareCap(); countID(c.ids, id) >= limit {
		c.stats.FairnessDropped++
		return false, false, nil
	}
	tau := c.gen - trainedGen
	disc := c.staleness(tau)

	// The weight is the synchronous rule's base weight, discounted, so the
	// flush divides by the buffer's discounted weight sum and the update
	// magnitude stays scale-stable under any mix of stalenesses.
	s := c.e.server
	if err := s.fold(s.baseWeight(u.N)*disc, disc, u); err != nil {
		return false, false, err
	}
	c.buffered++
	c.loss += u.TrainLoss
	c.ids = append(c.ids, id)
	c.stats.Folds++
	c.stats.MeanStaleness += float64(tau) // sum; divided at Result assembly
	if tau > c.stats.MaxStaleness {
		c.stats.MaxStaleness = tau
	}
	if c.buffered < c.buffer {
		return false, false, nil
	}
	if err := c.flush(); err != nil {
		c.failed = err
		return true, true, err
	}
	return true, c.done, nil
}

// flush closes the buffer: applies the accumulator, normalized by the
// discounted weight sum, and closes the generation in the ledger. Called
// with mu held.
func (c *AsyncCoordinator) flush() error {
	c.e.server.apply()
	c.e.server.resetAccumulator()

	g := c.gen
	c.gen++
	c.done = c.gen >= c.e.cfg.Rounds
	now := time.Now()
	m := RoundMetrics{
		Round:        g,
		TestAccuracy: -1,
		TrainLoss:    c.loss / float64(c.buffered),
		Duration:     now.Sub(c.lastAt),
		Sampled:      append([]int(nil), c.ids...),
	}
	c.lastAt = now
	if c.meter != nil {
		m.CommBytes = c.meter.RoundBytes()
	}
	c.buffered = 0
	c.loss = 0
	c.ids = c.ids[:0]
	return c.led.close(g, m)
}

// RunAsync executes a buffered-async federation over the transport and
// assembles the Result. The transport owns delivery and broadcast; the
// coordinator owns the flush schedule and staleness weighting. Requires
// Config.AsyncBuffer > 0.
func (e *Engine) RunAsync(tr AsyncTransport) (*Result, error) {
	if e.cfg.AsyncBuffer <= 0 {
		return nil, fmt.Errorf("fl: RunAsync needs AsyncBuffer > 0")
	}
	c := newAsyncCoordinator(e, tr)
	if err := tr.RunAsync(c); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return nil, c.failed
	}
	if !c.done {
		return nil, fmt.Errorf("fl: async transport stopped at generation %d of %d", c.gen, e.cfg.Rounds)
	}
	res := c.led.result()
	stats := c.stats
	if stats.Folds > 0 {
		stats.MeanStaleness /= float64(stats.Folds)
	}
	res.Async = &stats
	return res, nil
}
