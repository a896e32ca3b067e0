package fl

import (
	"reflect"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/partition"
)

// schedulers is the table axis for everything the round ledger decides:
// the same federation closed round by round (Engine.Run) and generation
// by generation (RunAsync over the lockstep transport, one generation per
// pass at a buffer of every party).
var schedulers = []struct {
	name  string
	async bool
}{
	{"sync", false},
	{"async", true},
}

// ledgerFederation builds a 3-party federation for one scheduler row and
// returns it with the function that runs it to completion.
func ledgerFederation(t *testing.T, async bool, cfg Config) (*Simulation, func() (*Result, error)) {
	t.Helper()
	const parties = 3
	if async {
		cfg.AsyncBuffer = parties
	}
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, parties, cfg)
	if async {
		return sim, func() (*Result, error) { return sim.engine.RunAsync(&lockstepAsync{sim: sim}) }
	}
	return sim, sim.Run
}

// TestCheckpointCadence pins which rounds fire the hook: every round at
// cadence 1 (and <= 0), the cadence multiples plus the final round
// otherwise.
func TestCheckpointCadence(t *testing.T) {
	for _, sched := range schedulers {
		for _, tc := range []struct {
			every int
			want  []int
		}{
			{0, []int{1, 2, 3, 4}},
			{1, []int{1, 2, 3, 4}},
			{2, []int{2, 4}},
			{3, []int{3, 4}}, // cadence round plus the mandatory final round
			{9, []int{4}},
		} {
			sim, run := ledgerFederation(t, sched.async, quickCfg(FedAvg))
			var fired []int
			sim.engine.Checkpoint = func(s *FederationSnapshot) error {
				if len(s.Curve) != s.Round {
					t.Fatalf("%s: snapshot at round %d carries %d curve rows", sched.name, s.Round, len(s.Curve))
				}
				fired = append(fired, s.Round)
				return nil
			}
			sim.engine.CheckpointEvery = tc.every
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fired, tc.want) {
				t.Fatalf("%s: cadence %d fired at %v, want %v", sched.name, tc.every, fired, tc.want)
			}
		}
	}
}

// TestEvalCadence pins which rounds are evaluated — the EvalEvery
// multiples plus the final round, -1 elsewhere — and that BestAccuracy and
// FinalAccuracy are read off those rounds.
func TestEvalCadence(t *testing.T) {
	for _, sched := range schedulers {
		cfg := quickCfg(FedAvg)
		cfg.Rounds = 5
		cfg.EvalEvery = 2
		_, run := ledgerFederation(t, sched.async, cfg)
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for r, m := range res.Curve {
			if want := r == 1 || r == 3 || r == 4; (m.TestAccuracy >= 0) != want {
				t.Fatalf("%s: round %d accuracy %v, evaluated should be %v", sched.name, r, m.TestAccuracy, want)
			}
			best = max(best, m.TestAccuracy)
		}
		if res.BestAccuracy != best || res.FinalAccuracy != res.Curve[4].TestAccuracy {
			t.Fatalf("%s: best %v final %v, curve says %v / %v",
				sched.name, res.BestAccuracy, res.FinalAccuracy, best, res.Curve[4].TestAccuracy)
		}
	}
}

// TestNilEvaluatorLeavesAccuracyUnset is the regression test for the
// nil-evaluator split: NewEngine accepts a nil Evaluator, and the
// synchronous loop used to dereference it on the first evaluation round
// while the async flush skipped it. Under both schedulers such a run now
// completes with every TestAccuracy at -1.
func TestNilEvaluatorLeavesAccuracyUnset(t *testing.T) {
	for _, sched := range schedulers {
		cfg := quickCfg(FedAvg)
		cfg.Rounds = 2
		sim, run := ledgerFederation(t, sched.async, cfg)
		sim.engine.eval = nil
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Curve {
			if m.TestAccuracy != -1 {
				t.Fatalf("%s: round %d accuracy %v without an evaluator", sched.name, m.Round, m.TestAccuracy)
			}
		}
		if len(res.Curve) != 2 || res.FinalAccuracy != -1 || res.BestAccuracy != 0 {
			t.Fatalf("%s: %d rounds, final %v best %v", sched.name, len(res.Curve), res.FinalAccuracy, res.BestAccuracy)
		}
	}
}

// TestRestoredAccumulatorsCarryIntoResult resumes at round 2 of 4 from a
// snapshot whose history no real run could have produced, and checks the
// ledger carried all of it — curve prefix, best accuracy, byte and compute
// totals — into the Result and into the next snapshot.
func TestRestoredAccumulatorsCarryIntoResult(t *testing.T) {
	for _, sched := range schedulers {
		sim, run := ledgerFederation(t, sched.async, quickCfg(FedAvg))
		history := []RoundMetrics{
			{Round: 0, TestAccuracy: 2, TrainLoss: 7, CommBytes: 600, Duration: time.Hour, Sampled: []int{0, 1, 2}},
			{Round: 1, TestAccuracy: -1, TrainLoss: 6, CommBytes: 400, Duration: time.Hour, Sampled: []int{0, 1, 2}},
		}
		if err := sim.engine.Restore(sim.engine.Snapshot(2, history, 2, 1000, 2*time.Hour)); err != nil {
			t.Fatal(err)
		}
		var snaps []*FederationSnapshot
		sim.engine.Checkpoint = func(s *FederationSnapshot) error {
			snaps = append(snaps, s)
			return nil
		}
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Curve) != 4 || !reflect.DeepEqual(res.Curve[:2], history) {
			t.Fatalf("%s: curve %+v does not extend the restored history", sched.name, res.Curve)
		}
		if res.Curve[2].Round != 2 || res.Curve[3].Round != 3 {
			t.Fatalf("%s: resumed rounds numbered %d, %d", sched.name, res.Curve[2].Round, res.Curve[3].Round)
		}
		wantBytes := int64(1000) + res.Curve[2].CommBytes + res.Curve[3].CommBytes
		wantCompute := 2*time.Hour + res.Curve[2].Duration + res.Curve[3].Duration
		if res.BestAccuracy != 2 || res.TotalCommBytes != wantBytes || res.ComputeTime != wantCompute {
			t.Fatalf("%s: best %v bytes %d compute %v, want 2 / %d / %v",
				sched.name, res.BestAccuracy, res.TotalCommBytes, res.ComputeTime, wantBytes, wantCompute)
		}
		if res.CommBytesPerRound != float64(wantBytes)/4 {
			t.Fatalf("%s: %v bytes per round over 4 rounds of %d", sched.name, res.CommBytesPerRound, wantBytes)
		}
		last := snaps[len(snaps)-1]
		if len(snaps) != 2 || last.Round != 4 || last.BestAccuracy != 2 ||
			last.TotalCommBytes != wantBytes || last.ComputeTime != wantCompute || len(last.Curve) != 4 {
			t.Fatalf("%s: final snapshot %+v did not carry the ledger", sched.name, last)
		}
	}
}
