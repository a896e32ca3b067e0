package experiments

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/metrics"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{
		ID:    "table5",
		Title: "Mixed types of skew on CIFAR-10 (Table V)",
		Run:   runTable5,
	})
}

// runTable5 reproduces the paper's two mixed-skew cases on CIFAR-10-like
// data: (1) label skew + feature noise, (2) quantity skew + feature noise,
// each compared against its single-skew components.
func runTable5(h *Harness) error {
	ds := "cifar10"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	type rowSpec struct {
		label    string
		strategy partition.Strategy
	}
	cases := []struct {
		title string
		rows  []rowSpec
	}{
		{
			title: "Case 1: label skew + feature skew",
			rows: []rowSpec{
				{"label skew", partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}},
				{"feature skew", partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}},
				{"label + feature", partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5, NoiseSigma: 0.1}},
			},
		},
		{
			title: "Case 2: feature skew + quantity skew",
			rows: []rowSpec{
				{"feature skew", partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}},
				{"quantity skew", partition.Strategy{Kind: partition.Quantity, Beta: 0.5}},
				{"feature + quantity", partition.Strategy{Kind: partition.Quantity, Beta: 0.5, NoiseSigma: 0.1}},
			},
		},
	}
	for _, c := range cases {
		tb := report.NewTable(c.title+" ("+ds+")",
			"setting", "FedAvg", "FedProx", "SCAFFOLD", "FedNova")
		for _, row := range c.rows {
			cells := []string{row.label}
			for _, algo := range fl.Algorithms() {
				accs, err := h.RunTrials(gridCell(ds, row.strategy, algo))
				if err != nil {
					return fmt.Errorf("%s/%s: %w", row.label, algo, err)
				}
				cells = append(cells, metrics.Summarize(accs).String())
			}
			tb.AddRow(cells...)
		}
		tb.Render(h.Out)
		fmt.Fprintln(h.Out)
	}
	fmt.Fprintln(h.Out, "paper shape: mixed skew degrades accuracy below each single skew; quantity skew wrecks SCAFFOLD/FedNova either way")
	return nil
}
