package experiments

import (
	"fmt"
	"sort"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "leaderboard", Title: "Leaderboard: rank all algorithms (incl. FedDyn/MOON extensions) across non-IID settings", Run: runLeaderboard})
	register(Experiment{ID: "extensions", Title: "Extension algorithms (FedDyn, MOON) vs the studied four on label skew", Run: runExtensions})
}

// leaderboardSettings is the panel of non-IID settings algorithms are
// ranked on: one of each skew type plus the IID baseline.
func leaderboardSettings() []struct {
	dataset string
	strat   partition.Strategy
} {
	return []struct {
		dataset string
		strat   partition.Strategy
	}{
		{"mnist", partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}},
		{"mnist", partition.Strategy{Kind: partition.LabelQuantity, K: 2}},
		{"fmnist", partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}},
		{"adult", partition.Strategy{Kind: partition.Quantity, Beta: 0.5}},
		{"adult", partition.Strategy{Kind: partition.Homogeneous}},
	}
}

// runLeaderboard mirrors the public leaderboard the paper maintains with
// NIID-Bench: every algorithm is scored on each setting; the board ranks
// them by mean accuracy rank (1 = best).
func runLeaderboard(h *Harness) error {
	algos := fl.ExtendedAlgorithms()
	settings := leaderboardSettings()
	type score struct {
		algo     fl.Algorithm
		meanRank float64
		meanAcc  float64
	}
	accs := make(map[fl.Algorithm][]float64)
	for _, s := range settings {
		if !h.opt.wantDataset(s.dataset) {
			continue
		}
		type cell struct {
			algo fl.Algorithm
			acc  float64
		}
		var cells []cell
		for _, algo := range algos {
			run := gridCell(s.dataset, s.strat, algo)
			run.EvalEvery = h.p.rounds
			res, err := h.RunSetting(run)
			if err != nil {
				return fmt.Errorf("%s/%s/%s: %w", s.dataset, s.strat, algo, err)
			}
			cells = append(cells, cell{algo, res.FinalAccuracy})
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].acc > cells[j].acc })
		for rank, c := range cells {
			accs[c.algo] = append(accs[c.algo], float64(rank+1))
		}
		fmt.Fprintf(h.Out, "%s under %s:", s.dataset, s.strat)
		for _, c := range cells {
			fmt.Fprintf(h.Out, "  %s=%.3f", c.algo, c.acc)
		}
		fmt.Fprintln(h.Out)
	}
	if len(accs) == 0 {
		return fmt.Errorf("experiments: leaderboard had no settings after filtering")
	}
	var scores []score
	for algo, ranks := range accs {
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		scores = append(scores, score{algo: algo, meanRank: sum / float64(len(ranks))})
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].meanRank < scores[j].meanRank })
	tb := report.NewTable("\nLeaderboard (lower mean rank is better)", "place", "algorithm", "mean rank")
	for i, s := range scores {
		tb.AddRow(fmt.Sprint(i+1), string(s.algo), fmt.Sprintf("%.2f", s.meanRank))
	}
	tb.Render(h.Out)
	return nil
}

// runExtensions compares the Section III-D extension algorithms against
// the paper's four on the hardest setting family (label skew).
func runExtensions(h *Harness) error {
	ds := "mnist"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	for _, strat := range []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.5},
		{Kind: partition.LabelQuantity, K: 2},
	} {
		fmt.Fprintf(h.Out, "\n%s under %s:\n", ds, strat)
		for _, algo := range fl.ExtendedAlgorithms() {
			res, err := h.RunSetting(gridCell(ds, strat, algo))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", strat, algo, err)
			}
			fmt.Fprintln(h.Out, report.Curve(string(algo), AccuracyCurve(res)))
		}
	}
	fmt.Fprintln(h.Out, "\nFedDyn and MOON are the paper's listed future comparisons (Section III-D)")
	return nil
}
