package fl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// flakyTransport is a Membership-aware fake: every party reports live
// except during the first `outage` SyncMembership calls, where only one
// party is. Updates are zero deltas — the quorum machinery under test
// lives entirely in the engine.
type flakyTransport struct {
	cfg      Config
	n        int
	stateLen int
	outage   int // SyncMembership calls that report below-quorum
	calls    int
	rounds   int // TrainRound invocations actually run
}

func (f *flakyTransport) SyncMembership(round int) []bool {
	f.calls++
	live := make([]bool, f.n)
	for i := range live {
		live[i] = true
	}
	if f.calls <= f.outage {
		for i := 1; i < f.n; i++ {
			live[i] = false
		}
	}
	return live
}

func (f *flakyTransport) PartyMeta(id int) UpdateMeta {
	return UpdateMeta{N: 10, Tau: PredictTau(f.cfg, 10)}
}

func (f *flakyTransport) TrainRound(round int, sampled []int, global, control []float64, sink *RoundSink) error {
	f.rounds++
	for j := range sampled {
		u := Update{Delta: make([]float64, f.stateLen), N: 10, Tau: PredictTau(f.cfg, 10), TrainLoss: 0.5}
		if err := sink.Fold(j, u); err != nil {
			return err
		}
	}
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

func TestQuorumSkipAndRetry(t *testing.T) {
	tr := &flakyTransport{n: 4, outage: 3}
	cfg := Config{Algorithm: FedAvg, Rounds: 3, Seed: 1,
		MinParties: 4, QuorumRetries: 10, QuorumRetryWait: time.Millisecond}
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
	// Round 0 was skipped for the 3 below-quorum attempts, then ran; the
	// skips must be visible in its metrics and nowhere else.
	q := res.Curve[0].Quorum
	if q == nil || q.Attempts != 3 || q.Round != 0 || q.Live != 1 || q.Min != 4 {
		t.Fatalf("round 0 quorum record: %+v", q)
	}
	for _, m := range res.Curve[1:] {
		if m.Quorum != nil {
			t.Fatalf("round %d has a quorum record: %+v", m.Round, m.Quorum)
		}
	}
	if tr.rounds != 3 {
		t.Fatalf("transport trained %d rounds, want 3 (skipped attempts must not train)", tr.rounds)
	}
}

func TestQuorumExhaustedAborts(t *testing.T) {
	tr := &flakyTransport{n: 4, outage: 1 << 30}
	cfg := Config{Algorithm: FedAvg, Rounds: 2, Seed: 1,
		MinParties: 2, QuorumRetries: 2, QuorumRetryWait: time.Millisecond}
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
	if qe.Round != 0 || qe.Live != 1 || qe.Min != 2 || qe.Attempts != 3 {
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
