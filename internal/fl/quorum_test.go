package fl

import (
	"errors"
	"fmt"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// flakyTransport is a Membership-aware fake of a transport that owns the
// quorum wait, as the simnet federation does. Every party is live, but
// with outage set the first round attempt finds only one party live: the
// transport waits, and SyncMembership reports the shortfall it waited out
// — or, with exhaust also set, returns it as the run-ending error. The
// first `lost` attempts that train drop every update, as a federation
// whose sampled parties all died mid-round would. Updates are zero
// deltas.
type flakyTransport struct {
	cfg      Config
	n        int
	stateLen int
	outage   bool
	exhaust  bool
	lost     int
	short    *QuorumError // the shortfall of the round in progress
	calls    int          // SyncMembership calls
	rounds   int          // TrainRound invocations actually run
}

func (f *flakyTransport) SyncMembership(round int) ([]bool, *QuorumError, error) {
	if f.calls++; f.calls == 1 && f.outage {
		f.short = &QuorumError{Round: round, Live: 1, Min: f.cfg.MinParties, Attempts: 1}
		if f.exhaust {
			return nil, nil, f.short
		}
	}
	live := make([]bool, f.n)
	for i := range live {
		live[i] = true
	}
	return live, f.short, nil
}

func (f *flakyTransport) PartyMeta(id int) UpdateMeta {
	return UpdateMeta{N: 10, Tau: PredictTau(f.cfg, 10)}
}

func (f *flakyTransport) TrainRound(round int, sampled []int, global, control []float64, sink *RoundSink) error {
	f.rounds++
	if f.lost > 0 {
		f.lost--
		if f.short == nil {
			f.short = &QuorumError{Round: round, Min: f.cfg.MinParties}
		}
		f.short.Live = 0
		f.short.Attempts++
		for j := range sampled {
			if err := sink.Drop(j, errors.New("lost")); err != nil {
				return err
			}
		}
		return nil
	}
	for j := range sampled {
		u := Update{Delta: make([]float64, f.stateLen), N: 10, Tau: PredictTau(f.cfg, 10), TrainLoss: 0.5}
		if err := sink.Fold(j, u); err != nil {
			return err
		}
	}
	f.short = nil // the round completes
	return nil
}

func quorumHarness(t *testing.T, cfg Config, tr *flakyTransport) (*Engine, error) {
	t.Helper()
	cfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tr.cfg = cfg
	_, test, err := data.Load("adult", data.Config{TrainN: 40, TestN: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	root := rng.New(cfg.Seed)
	init := nn.Build(cfg.ResolveSpec(spec), root.Split())
	tr.stateLen = len(init.State())
	server := NewServer(cfg, init.State(), init.ParamCount(), tr.n)
	eval := NewEvaluator(cfg.ResolveSpec(spec), test)
	return NewEngine(cfg, server, eval, tr.n, root.Split(), nil)
}

// TestQuorumWaitRecorded: a round that waited for quorum carries the
// shortfall in its metrics, and no other round does.
func TestQuorumWaitRecorded(t *testing.T) {
	tr := &flakyTransport{n: 4, outage: true}
	cfg := Config{Algorithm: FedAvg, Rounds: 3, Seed: 1, MinParties: 4}
	engine, err := quorumHarness(t, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 3 {
		t.Fatalf("completed %d/3 rounds", len(res.Curve))
	}
	q := res.Curve[0].Quorum
	if q == nil || q.Attempts != 1 || q.Round != 0 || q.Live != 1 || q.Min != 4 {
		t.Fatalf("round 0 quorum record: %+v", q)
	}
	for _, m := range res.Curve[1:] {
		if m.Quorum != nil {
			t.Fatalf("round %d has a quorum record: %+v", m.Round, m.Quorum)
		}
	}
	if tr.rounds != 3 {
		t.Fatalf("transport trained %d rounds, want 3 (a round waits before it trains)", tr.rounds)
	}
}

// TestQuorumLostRoundReattempted: an attempt that lost every update is
// attempted again at the same round — the lost attempts fold nothing —
// and the round that finally ran records them.
func TestQuorumLostRoundReattempted(t *testing.T) {
	tr := &flakyTransport{n: 4, lost: 2}
	cfg := Config{Algorithm: FedAvg, Rounds: 3, Seed: 1, MinParties: 2}
	engine, err := quorumHarness(t, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 3 || tr.rounds != 5 || tr.calls != 5 {
		t.Fatalf("completed %d/3 rounds in %d attempts (%d membership calls), want 5 attempts", len(res.Curve), tr.rounds, tr.calls)
	}
	q := res.Curve[0].Quorum
	if q == nil || q.Attempts != 2 || q.Round != 0 || q.Live != 0 || q.Min != 2 {
		t.Fatalf("round 0 quorum record: %+v", q)
	}
	for i, m := range res.Curve {
		if i > 0 && m.Quorum != nil {
			t.Fatalf("round %d has a quorum record: %+v", m.Round, m.Quorum)
		}
		if len(m.Dropped) != 0 {
			t.Fatalf("round %d reports the lost attempts' drops: %v", m.Round, m.Dropped)
		}
	}
}

// TestQuorumExhaustedAborts: a wait whose budget ran out ends the run
// with the transport's typed error, before anything trains.
func TestQuorumExhaustedAborts(t *testing.T) {
	tr := &flakyTransport{n: 4, outage: true, exhaust: true}
	cfg := Config{Algorithm: FedAvg, Rounds: 2, Seed: 1, MinParties: 2}
	engine, err := quorumHarness(t, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Run(tr)
	if err == nil {
		t.Fatal("permanent outage did not abort the run")
	}
	var qe *QuorumError
	if !errors.As(fmt.Errorf("wrap: %w", err), &qe) {
		t.Fatalf("error is not a *QuorumError: %v", err)
	}
	if qe.Round != 0 || qe.Live != 1 || qe.Min != 2 || qe.Attempts != 1 {
		t.Fatalf("quorum abort: %+v", qe)
	}
	if tr.rounds != 0 {
		t.Fatalf("transport trained %d rounds during a permanent outage", tr.rounds)
	}
}

// TestLivenessSamplingExcludesDead pins the sampler's liveness contract:
// dead parties never appear in the sample, the fraction applies to the
// live population, and with every party live the draw is bitwise what the
// nil-mask (fixed membership) sampler produces.
func TestLivenessSamplingExcludesDead(t *testing.T) {
	cfg, err := Config{Algorithm: FedAvg, Rounds: 1, Seed: 1, SampleFraction: 0.5}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Engine {
		e, err := NewEngine(cfg, NewServer(cfg, make([]float64, 4), 4, 8), nil, 8, rng.New(7), nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	allLive := make([]bool, 8)
	for i := range allLive {
		allLive[i] = true
	}
	a, b := mk().sampleParties(nil), mk().sampleParties(allLive)
	if len(a) != len(b) {
		t.Fatalf("all-live mask changed the sample size: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("all-live mask changed the draw: %v vs %v", a, b)
		}
	}
	half := make([]bool, 8)
	for _, id := range []int{0, 2, 4, 6} {
		half[id] = true
	}
	for trial := 0; trial < 20; trial++ {
		got := mk().sampleParties(half)
		if len(got) != 2 { // half of the 4 live parties
			t.Fatalf("trial %d: sampled %v from 4 live at fraction 0.5", trial, got)
		}
		for _, id := range got {
			if !half[id] {
				t.Fatalf("trial %d: sampled dead party %d", trial, id)
			}
		}
	}
}
