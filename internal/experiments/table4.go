package experiments

import (
	"fmt"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func init() {
	register(Experiment{
		ID:    "table4",
		Title: "Computation time and communication size per round (Table IV)",
		Run:   runTable4,
	})
}

// runTable4 measures per-round computation time and communication volume
// for each algorithm on the paper's four representative datasets. The
// communication sizes are measured from actual serialized traffic over the
// in-memory transport, not computed analytically.
func runTable4(h *Harness) error {
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
		timeCells := []string{ds}
		commCells := []string{ds}
		for _, algo := range fl.Algorithms() {
			s := gridCell(ds, partition.Strategy{Kind: partition.Homogeneous}, algo)
			s.Rounds, s.EvalEvery = rounds, rounds
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
	timeTb.Render(h.Out)
	fmt.Fprintln(h.Out)
	commTb.Render(h.Out)
	fmt.Fprintln(h.Out, "\npaper shape: FedProx costs the most compute (extra proximal gradient); SCAFFOLD moves ~2x the bytes (control variates)")
	return nil
}
