package experiments

import (
	"errors"
	"fmt"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func init() {
	register(Experiment{ID: "async", Title: "Buffered-async aggregation: wall-clock and accuracy vs synchronous rounds under stragglers", Run: runAsync})
}

// runAsync measures what the buffered-async mode buys under stragglers: a
// quarter of the parties dial through a per-frame latency plan, and each
// cell federates over real loopback TCP either synchronously (every round
// waits for the slowest party) or asynchronously with buffer M (the global
// model advances every M folds, stale updates discounted). Every cell
// folds the same total number of updates — async runs rounds*K/M
// generations — so wall-clock and final accuracy are compared at equal
// aggregate work. The paper's evaluation is all-synchronous; this is the
// robustness axis its Section V leaves open.
func runAsync(h *Harness) error {
	ds := "adult"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	strat := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	parties := h.p.parties
	algos := []fl.Algorithm{fl.FedAvg, fl.Scaffold}
	if h.opt.Scale == Smoke {
		algos = []fl.Algorithm{fl.FedAvg}
	}
	stragglers := parties / 4
	if stragglers == 0 {
		stragglers = 1
	}
	// Buffer sweep: fold-by-fold (M=1), quarter-buffer, full-buffer
	// (M=K, the async analogue of a full round).
	buffers := []int{1}
	if q := parties / 4; q > 1 {
		buffers = append(buffers, q)
	}
	if parties > 1 {
		buffers = append(buffers, parties)
	}
	fmt.Fprintf(h.Out, "%s, %s, %d parties (%d stragglers at +3ms/frame), %d sync rounds over loopback TCP, equal total folds per cell\n",
		ds, strat, parties, stragglers, h.p.rounds)
	for _, algo := range algos {
		s := gridCell(ds, strat, algo)
		s.ChunkSize = 512 // several frames per update, so straggler latency bites
		cfg, spec, locals, test, err := h.job(s)
		if err != nil {
			return err
		}
		syncWall, syncRes, err := runAsyncCell(cfg, spec, locals, test, stragglers, h.opt.Seed)
		if err != nil {
			return fmt.Errorf("async %s sync baseline: %w", algo, err)
		}
		fmt.Fprintf(h.Out, "\n%s:\n", algo)
		fmt.Fprintf(h.Out, "  sync          rounds %3d  wall %8s  acc %s\n",
			len(syncRes.Curve), syncWall.Round(time.Millisecond), report.Percent(syncRes.FinalAccuracy))
		for _, m := range buffers {
			acfg := cfg
			acfg.AsyncBuffer = m
			acfg.Rounds = cfg.Rounds * parties / m
			wall, res, err := runAsyncCell(acfg, spec, locals, test, stragglers, h.opt.Seed)
			if err != nil {
				return fmt.Errorf("async %s M=%d: %w", algo, m, err)
			}
			speedup := syncWall.Seconds() / wall.Seconds()
			fmt.Fprintf(h.Out, "  async M=%-4d  gens   %3d  wall %8s  acc %s (%+.1fpt vs sync, %.1fx wall-clock)  folds %d  staleness mean %.2f max %d\n",
				m, len(res.Curve), wall.Round(time.Millisecond), report.Percent(res.FinalAccuracy),
				(res.FinalAccuracy-syncRes.FinalAccuracy)*100, speedup,
				res.Async.Folds, res.Async.MeanStaleness, res.Async.MaxStaleness)
		}
	}
	fmt.Fprintln(h.Out, "\nexpected shape: at equal total folds async finishes faster (rounds no longer wait for the stragglers) and lands within ~2 accuracy points of sync; small M refreshes the global most often but discounts more stale work")
	return nil
}

// runAsyncCell runs one federation over loopback TCP with the first
// `stragglers` parties dialing through a +3ms/frame latency plan, and
// returns the wall-clock of the whole schedule.
func runAsyncCell(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, stragglers int, seed uint64) (time.Duration, *fl.Result, error) {
	return runTimedCell(cfg, spec, locals, test, func(i int) simnet.PartyOptions {
		if i >= stragglers {
			return simnet.PartyOptions{}
		}
		return simnet.PartyOptions{Faults: &simnet.FaultPlan{Seed: seed + uint64(i), Latency: 3 * time.Millisecond, Jitter: time.Millisecond}}
	})
}

// runTimedCell federates once over loopback TCP and returns the
// wall-clock of the whole schedule. The cells that use it inject at most
// latency, which never kills a connection, so a party error is an
// infrastructure failure here, not part of the experiment.
func runTimedCell(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, party func(int) simnet.PartyOptions) (time.Duration, *fl.Result, error) {
	start := time.Now()
	res, partyErrs, err := simnet.RunLoopback(cfg, spec, locals, test, simnet.ServerOptions{RoundTimeout: 30 * time.Second}, party)
	wall := time.Since(start)
	if err = errors.Join(err, errors.Join(partyErrs...)); err != nil {
		return 0, nil, err
	}
	return wall, res, nil
}
