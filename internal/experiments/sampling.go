package experiments

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "fig10", Title: "Party sampling: many parties, fraction 0.1, Dir(0.5) and q~Dir(0.5) (Figure 10)", Run: runFig10})
	register(Experiment{ID: "fig22", Title: "Party sampling: remaining partitions (Figure 22)", Run: runFig22})
	register(Experiment{ID: "fig11", Title: "Scalability: accuracy vs number of parties (Figure 11)", Run: runFig11})
}

// samplingGeometry returns the (parties, fraction, rounds) used for the
// partial-participation experiments at the harness scale. The paper uses
// 100 parties with fraction 0.1 over 500 rounds.
func (h *Harness) samplingGeometry() (parties int, fraction float64, rounds int) {
	switch h.opt.Scale {
	case Paper:
		return 100, 0.1, 500
	case Quick:
		return 20, 0.2, 15
	default:
		return 8, 0.25, 2
	}
}

func runSampling(h *Harness, strats []partition.Strategy) error {
	parties, fraction, rounds := h.samplingGeometry()
	ds := "cifar10"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	train, _, err := h.Dataset(ds)
	if err != nil {
		return err
	}
	fmt.Fprintf(h.Out, "%s, %d parties, sample fraction %g, %d rounds\n", ds, parties, fraction, rounds)
	for _, strat := range strats {
		if strat.Kind == partition.LabelQuantity && strat.K > train.NumClasses {
			fmt.Fprintf(h.Out, "\nskipping %s: dataset has only %d classes\n", strat, train.NumClasses)
			continue
		}
		fmt.Fprintf(h.Out, "\nunder %s:\n", strat)
		for _, algo := range fl.Algorithms() {
			s := gridCell(ds, strat, algo)
			s.Parties, s.SampleFraction, s.Rounds = parties, fraction, rounds
			res, err := h.RunSetting(s)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", strat, algo, err)
			}
			fmt.Fprintln(h.Out, report.Curve(string(algo), AccuracyCurve(res)))
		}
	}
	fmt.Fprintln(h.Out, "\npaper shape: curves are unstable under sampling; SCAFFOLD degrades badly (stale control variates)")
	return nil
}

func runFig10(h *Harness) error {
	return runSampling(h, []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.5},
		{Kind: partition.Quantity, Beta: 0.5},
	})
}

func runFig22(h *Harness) error {
	return runSampling(h, []partition.Strategy{
		{Kind: partition.LabelQuantity, K: 1},
		{Kind: partition.LabelQuantity, K: 2},
		{Kind: partition.LabelQuantity, K: 3},
		{Kind: partition.Homogeneous},
	})
}

// partyGrid returns the party counts swept by the scalability experiment.
func (h *Harness) partyGrid() []int {
	switch h.opt.Scale {
	case Paper:
		return []int{10, 20, 30, 40}
	case Quick:
		return []int{5, 10, 20, 40}
	default:
		return []int{4, 8}
	}
}

func runFig11(h *Harness) error {
	ds := "cifar10"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	for _, strat := range []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.5},
		{Kind: partition.FeatureNoise, NoiseSigma: 0.1},
	} {
		grid := h.partyGrid()
		headers := []string{"algorithm"}
		for _, p := range grid {
			headers = append(headers, fmt.Sprintf("N=%d", p))
		}
		tb := report.NewTable(fmt.Sprintf("%s under %s: final accuracy vs parties", ds, strat), headers...)
		for _, algo := range fl.Algorithms() {
			cells := []string{string(algo)}
			for _, p := range grid {
				s := gridCell(ds, strat, algo)
				s.Parties, s.EvalEvery = p, h.p.rounds
				res, err := h.RunSetting(s)
				if err != nil {
					return fmt.Errorf("%s/%s N=%d: %w", strat, algo, p, err)
				}
				cells = append(cells, report.Percent(res.FinalAccuracy))
			}
			tb.AddRow(cells...)
		}
		tb.Render(h.Out)
		fmt.Fprintln(h.Out)
	}
	fmt.Fprintln(h.Out, "paper shape: accuracy decreases as the number of parties grows (less local data each)")
	return nil
}
