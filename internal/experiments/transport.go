package experiments

// The transport experiments federate over the simnet transports and
// report what a grid cell does not — time, bytes on the wire, stragglers,
// faults — so each is a function on harness.job rather than a grid.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/simnet"
)

// runTable4 measures per-round computation time and communication volume
// for each algorithm on the paper's four representative datasets. The
// communication sizes are measured from actual serialized traffic over the
// in-memory transport, not computed analytically.
func runTable4(h *harness) error {
	datasets := []string{"mnist", "cifar10", "adult", "rcv1"}
	timeTb := report.NewTable("Computation time per round",
		"dataset", "FedAvg", "FedProx", "SCAFFOLD", "FedNova")
	commTb := report.NewTable("Communication size per round (per-party model traffic, measured)",
		"dataset", "FedAvg", "FedProx", "SCAFFOLD", "FedNova")
	rounds := 2
	if h.opt.Scale == Paper {
		rounds = 5
	}
	for _, ds := range datasets {
		if !h.opt.wantDataset(ds) {
			continue
		}
		timeCells, commCells := []string{ds}, []string{ds}
		for _, algo := range fl.Algorithms() {
			s := at(ds, iid)
			s.Algorithm, s.Rounds, s.EvalEvery = algo, rounds, rounds
			cfg, spec, locals, test, err := h.job(s)
			if err != nil {
				return err
			}
			res, err := simnet.RunLocal(cfg, spec, locals, test)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", ds, algo, err)
			}
			perRound := res.ComputeTime / time.Duration(rounds)
			timeCells = append(timeCells, perRound.Round(time.Millisecond).String())
			commCells = append(commCells, report.Bytes(res.CommBytesPerRound))
		}
		timeTb.AddRow(timeCells...)
		commTb.AddRow(commCells...)
	}
	timeTb.Render(h.out)
	fmt.Fprintln(h.out)
	commTb.Render(h.out)
	fmt.Fprintln(h.out, "\npaper shape: FedProx costs the most compute (extra proximal gradient); SCAFFOLD moves ~2x the bytes (control variates)")
	return nil
}

// runCodec is the accuracy-vs-bytes sweep for the quantized chunk codecs:
// the identical federation — same partition, same seeds, same round
// schedule — runs over loopback TCP once per wire codec, and the table
// reports what each lossy wire costs in final accuracy against what it
// saves in measured bytes. CommBytes is counted from the actual frames on
// the wire, so the reduction column is the on-wire truth, not an analytic
// estimate.
// The paper's Table IV reports communication size per algorithm at f64;
// this sweep adds the codec axis its Section V leaves open.
func runCodec(h *harness) error {
	ds := h.opt.dataset("adult")
	s := at(ds, dir05)
	s.Algorithm, s.ChunkSize = fl.FedAvg, 512 // the chunk frame is the quantization unit
	cfg, spec, locals, test, err := h.job(s)
	if err != nil {
		return err
	}
	codecs := []fl.Codec{fl.CodecF64, fl.CodecF32, fl.CodecInt8, fl.CodecInt4}
	fmt.Fprintf(h.out, "%s, %s, %d parties, %d rounds over loopback TCP, codec negotiated at the hello\n\n",
		ds, s.Strategy, len(locals), cfg.Rounds)
	tbl := report.NewTable("accuracy vs bytes", "codec", "acc", "Δacc vs f64", "total bytes", "bytes/round", "reduction", "wall")
	var baseAcc float64
	var baseBytes int64
	for i, codec := range codecs {
		c := cfg
		c.Codec = codec
		// Every party dials clean; the measured CommBytes is the cell's
		// payload metric, wall-clock is reported for context only.
		wall, res, err := runTimedCell(c, spec, locals, test, nil)
		if err != nil {
			return fmt.Errorf("codec %s: %w", codec, err)
		}
		if i == 0 {
			baseAcc, baseBytes = res.FinalAccuracy, res.TotalCommBytes
		}
		tbl.AddRow(string(codec),
			report.Percent(res.FinalAccuracy),
			fmt.Sprintf("%+.2fpt", (res.FinalAccuracy-baseAcc)*100),
			report.Bytes(float64(res.TotalCommBytes)),
			report.Bytes(res.CommBytesPerRound),
			fmt.Sprintf("%.2fx", float64(baseBytes)/float64(res.TotalCommBytes)),
			wall.Round(time.Millisecond).String())
	}
	tbl.Render(h.out)
	fmt.Fprintln(h.out, "\nexpected shape: f32 halves the bytes at no visible accuracy cost; int8 cuts them ~7x within a point of f64; int4 is the aggressive end — ~13x fewer bytes, worth it only when the link, not the math, is the bottleneck")
	return nil
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
func runAsync(h *harness) error {
	ds := h.opt.dataset("adult")
	parties := h.p.parties
	algos := []fl.Algorithm{fl.FedAvg, fl.Scaffold}
	if h.opt.Scale == Smoke {
		algos = []fl.Algorithm{fl.FedAvg}
	}
	stragglers := max(parties/4, 1)
	// Buffer sweep: fold-by-fold (M=1), quarter-buffer, full-buffer
	// (M=K, the async analogue of a full round).
	buffers := []int{1}
	if q := parties / 4; q > 1 {
		buffers = append(buffers, q)
	}
	if parties > 1 {
		buffers = append(buffers, parties)
	}
	fmt.Fprintf(h.out, "%s, %s, %d parties (%d stragglers at +3ms/frame), %d sync rounds over loopback TCP, equal total folds per cell\n",
		ds, dir05, parties, stragglers, h.p.rounds)
	for _, algo := range algos {
		s := at(ds, dir05)
		s.Algorithm, s.ChunkSize = algo, 512 // several frames per update, so straggler latency bites
		cfg, spec, locals, test, err := h.job(s)
		if err != nil {
			return err
		}
		syncWall, syncRes, err := runAsyncCell(cfg, spec, locals, test, stragglers, h.opt.Seed)
		if err != nil {
			return fmt.Errorf("async %s sync baseline: %w", algo, err)
		}
		fmt.Fprintf(h.out, "\n%s:\n", algo)
		fmt.Fprintf(h.out, "  sync          rounds %3d  wall %8s  acc %s\n",
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
			fmt.Fprintf(h.out, "  async M=%-4d  gens   %3d  wall %8s  acc %s (%+.1fpt vs sync, %.1fx wall-clock)  folds %d  staleness mean %.2f max %d\n",
				m, len(res.Curve), wall.Round(time.Millisecond), report.Percent(res.FinalAccuracy),
				(res.FinalAccuracy-syncRes.FinalAccuracy)*100, speedup,
				res.Async.Folds, res.Async.MeanStaleness, res.Async.MaxStaleness)
		}
	}
	fmt.Fprintln(h.out, "\nexpected shape: at equal total folds async finishes faster (rounds no longer wait for the stragglers) and lands within ~2 accuracy points of sync; small M refreshes the global most often but discounts more stale work")
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

// runChaos sweeps the robustness grid the paper's evaluation never had to
// face: per-frame connection-kill probability x rejoin policy x algorithm,
// over real loopback TCP with the deterministic fault plan doing the
// damage. Each cell reports how much of the schedule completed, how many
// updates the aggregation had to drop, how many evictions and successful
// rejoins the membership machine processed, and what the chaos cost in
// final accuracy against the cell's own no-fault baseline.
func runChaos(h *harness) error {
	ds := h.opt.dataset("adult")
	algos := fl.Algorithms()
	if h.opt.Scale == Smoke {
		algos = []fl.Algorithm{fl.FedAvg, fl.Scaffold}
	}
	drops := []float64{0.1, 0.3}
	if h.opt.Scale == Smoke {
		drops = []float64{0.2}
	}
	fmt.Fprintf(h.out, "%s, %s, %d parties, %d rounds over loopback TCP, fault seed %d\n",
		ds, dir05, h.p.parties, h.p.rounds, h.opt.Seed)
	for _, algo := range algos {
		s := at(ds, dir05)
		s.Algorithm, s.ChunkSize = algo, 1024 // several frames per stream, so a mid-stream kill is the common case
		cfg, spec, locals, test, err := h.job(s)
		if err != nil {
			return err
		}
		base, err := runChaosCell(cfg, spec, locals, test, simnet.FaultPlan{}, false)
		if err != nil {
			return fmt.Errorf("chaos %s baseline: %w", algo, err)
		}
		fmt.Fprintf(h.out, "\n%s (baseline %s):\n", algo, report.Percent(base.acc))
		for _, drop := range drops {
			for _, rejoin := range []bool{false, true} {
				plan := simnet.FaultPlan{Seed: h.opt.Seed + uint64(drop*100), DropProb: drop, Grace: 1}
				cell, err := runChaosCell(cfg, spec, locals, test, plan, rejoin)
				if err != nil {
					return fmt.Errorf("chaos %s drop=%g rejoin=%v: %w", algo, drop, rejoin, err)
				}
				mode := "off"
				if rejoin {
					mode = "on "
				}
				fmt.Fprintf(h.out, "  drop=%.2f rejoin=%s  rounds %d/%d  dropped %d  evictions %d  rejoins %d  acc %s (%+.1fpt)\n",
					drop, mode, cell.completed, cfg.Rounds, cell.droppedUpdates, cell.evictions, cell.rejoins,
					report.Percent(cell.acc), (cell.acc-base.acc)*100)
			}
		}
	}
	fmt.Fprintln(h.out, "\nexpected shape: rejoin recovers most of the no-fault accuracy; without it, drops thin the aggregation and SCAFFOLD suffers most (lost control variates)")
	return nil
}

// chaosCell summarizes one grid cell's run.
type chaosCell struct {
	completed      int // rounds that finished (all of them unless quorum aborted)
	droppedUpdates int // sampled updates abandoned mid-round
	evictions      int // membership departures (suspect + evicted)
	rejoins        int // parties sampled again after a departure
	acc            float64
}

// runChaosCell runs one federation over loopback TCP with every party
// dialing through the given fault plan. Party-side errors are part of the
// experiment (a killed party without rejoin SHOULD fail); only server-side
// infrastructure failures are returned as errors, with a quorum abort
// folded into the completion count instead.
func runChaosCell(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, plan simnet.FaultPlan, rejoin bool) (chaosCell, error) {
	var evictions atomic.Int32
	opts := simnet.ServerOptions{
		Events: func(e simnet.Event) {
			if e.Kind == simnet.Suspected || e.Kind == simnet.Evicted {
				evictions.Add(1)
			}
		},
		RoundTimeout: 20 * time.Second,
	}
	// Without rejoin nobody is coming back: waiting out the default quorum
	// budget would only stall the cell.
	cfg.QuorumWait = 200 * time.Millisecond
	if rejoin {
		// Require half the federation to proceed, and give departed parties
		// a window to come back. The broadcast heal window lets a party
		// whose conn died between rounds catch this round's broadcast on
		// its fresh conn.
		opts.RejoinGrace = 2 * time.Second
		cfg.MinParties, cfg.QuorumWait = (len(locals)+1)/2, 5*time.Second
	}
	// Party errors are dropped: no-rejoin parties die with their conns, and
	// rejoining parties fail their final redials once the server is gone.
	res, _, serveErr := simnet.RunLoopback(cfg, spec, locals, test, opts, func(int) simnet.PartyOptions {
		return simnet.PartyOptions{
			Rejoin:           rejoin,
			RejoinBackoff:    10 * time.Millisecond,
			RejoinBackoffMax: 100 * time.Millisecond,
			RejoinAttempts:   8,
			Faults:           &plan,
		}
	})
	cell := chaosCell{evictions: int(evictions.Load())}
	if serveErr != nil {
		var qe *fl.QuorumError
		if errors.As(serveErr, &qe) {
			// The live set never recovered quorum: the schedule was cut
			// short at qe.Round — a result, not a failure.
			cell.completed = qe.Round
			return cell, nil
		}
		return chaosCell{}, serveErr
	}
	cell.completed = len(res.Curve)
	cell.acc = res.FinalAccuracy
	departed := map[int]bool{}
	for _, m := range res.Curve {
		cell.droppedUpdates += len(m.Dropped)
		for _, id := range m.Sampled {
			if departed[id] {
				cell.rejoins++
				departed[id] = false
			}
		}
		for _, id := range m.Dropped {
			departed[id] = true
		}
	}
	return cell, nil
}
