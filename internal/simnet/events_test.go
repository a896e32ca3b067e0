package simnet

import (
	"sync/atomic"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
)

// TestEventStream pins the event stream of fault-free federations, over
// pipes and TCP, under both schedulers:
//
//   - sync, R rounds of K parties: exactly K Admitted events, one per party
//     on its first conn, then, round by round, one Shipped and one
//     Answered per sampled party, the Shipped first — and nothing else;
//   - async: K Admitted events first; per conn as many Answered as
//     Shipped; and Answered totals Async.Folds + Async.FairnessDropped
//     plus the replies drained after the final flush, at most two per
//     conn.
//
// The sink takes the table's lock and the federation's own from inside
// the callback, which deadlocks if it is ever called with either held.
// Party 0 says hello again as the run tears down: that hello is refused
// or closed unjudged, and no event arrives after AcceptAndRun returns.
func TestEventStream(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	cfg.Rounds, cfg.LocalEpochs = 3, 1
	k := len(locals)
	for _, row := range []struct {
		name  string
		tcp   bool
		async int
	}{{"pipe/sync", false, 0}, {"tcp/sync", true, 0}, {"pipe/async", false, 1}, {"tcp/async", true, 1}} {
		t.Run(row.name, func(t *testing.T) {
			cfg := cfg
			cfg.AsyncBuffer = row.async
			build := pipeFed
			if row.tcp {
				build = tcpFed
			}
			var (
				events   eventLog
				returned atomic.Bool
				fed      *memFed
			)
			fed = build(t, cfg, spec, test, k, ServerOptions{Events: func(e Event) {
				if returned.Load() {
					t.Errorf("event after AcceptAndRun returned: %v", e)
				}
				fed.table.alive()
				fed.mu.Lock()
				fed.mu.Unlock()
				events.add(e)
			}})
			cfg = fed.Cfg
			res, partyErrs, err := runInProcess(k, func() (*fl.Result, error) {
				defer returned.Store(true)
				return fed.serve()
			}, func(i int) error {
				conn, err := fed.connect()
				if err != nil {
					return err
				}
				err = serveParty(conn, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i))
				_ = conn.Close()
				if i == 0 && err == nil {
					// The run is over: a late hello, judged or closed unjudged.
					if late, derr := fed.connect(); derr == nil {
						b, _ := Marshal(HelloMsg{ID: 0, N: 10, LabelDist: []float64{1}})
						_ = late.Send(b)
						for _, rerr := late.Recv(); rerr == nil; _, rerr = late.Recv() {
						}
						_ = late.Close()
					}
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			reportErrs(t, partyErrs)

			var got []Event
			for _, e := range events.of() {
				if e.Kind != Refused {
					got = append(got, e)
				}
			}
			// The late hello is refused — the federation is full, or it is
			// still unread when the run ends — or closed unjudged.
			if refused := events.of(Refused); len(refused) > 1 {
				t.Fatalf("refusals in a fault-free run: %v", refused)
			}
			if len(got) < k {
				t.Fatalf("%d events, want at least the %d admissions: %v", len(got), k, got)
			}
			seated := map[int]bool{}
			for _, e := range got[:k] {
				if e.Kind != Admitted || e.Conn != 1 || seated[e.Party] {
					t.Fatalf("the first %d events are not one admission per party: %v", k, got[:k])
				}
				seated[e.Party] = true
			}
			got = got[k:]
			if row.async == 0 {
				for _, m := range res.Curve {
					n := 2 * len(m.Sampled)
					if len(got) < n {
						t.Fatalf("round %d: %d events left, want %d", m.Round, len(got), n)
					}
					due := map[Event]bool{}
					for _, id := range m.Sampled {
						due[Event{Kind: Shipped, Party: id, Conn: 1, Gen: m.Round}] = true
					}
					for _, e := range got[:n] {
						if !due[e] {
							t.Fatalf("round %d: unexpected %v in %v", m.Round, e, got[:n])
						}
						delete(due, e)
						if e.Kind == Shipped {
							e.Kind = Answered
							due[e] = true
						}
					}
					got = got[n:]
				}
				if len(got) != 0 {
					t.Fatalf("events past the last round: %v", got)
				}
				return
			}
			shipped, answered := map[int]int{}, 0
			for _, e := range got {
				switch e.Kind {
				case Shipped:
					shipped[e.Party]++
				case Answered:
					shipped[e.Party]--
					answered++
				default:
					t.Fatalf("async run emitted %v", e)
				}
			}
			for id, owed := range shipped {
				if owed != 0 {
					t.Errorf("party %d: %d more Shipped than Answered", id, owed)
				}
			}
			// A reply counts as its conn's answer before it folds, so when the
			// final flush lands each conn may hold one reply yet to fold and
			// one generation shipped against it: both fold as no-ops.
			counted := res.Async.Folds + res.Async.FairnessDropped
			if drained := answered - counted; drained < 0 || drained > 2*k {
				t.Fatalf("%d Answered, %d folded or fairness-dropped: %d drained after the final flush, want 0..%d",
					answered, counted, drained, 2*k)
			}
		})
	}
}
