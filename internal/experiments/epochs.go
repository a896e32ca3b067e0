package experiments

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "fig9", Title: "Effect of the number of local epochs on CIFAR-10 (Figure 9)", Run: epochRunner("cifar10", []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.5},
		{Kind: partition.FeatureNoise, NoiseSigma: 0.1},
	})})
	register(Experiment{ID: "fig17", Title: "Local-epoch sweep on CIFAR-10, remaining partitions (Figure 17)", Run: epochRunner("cifar10", []partition.Strategy{
		{Kind: partition.LabelQuantity, K: 1},
		{Kind: partition.LabelQuantity, K: 2},
		{Kind: partition.LabelQuantity, K: 3},
		{Kind: partition.Quantity, Beta: 0.5},
	})})
	register(Experiment{ID: "fig18", Title: "Local-epoch sweep on MNIST (Figure 18)", Run: epochRunner("mnist", appendixPartitions("mnist"))})
	register(Experiment{ID: "fig19", Title: "Local-epoch sweep on FMNIST (Figure 19)", Run: epochRunner("fmnist", appendixPartitions("fmnist"))})
	register(Experiment{ID: "fig20", Title: "Local-epoch sweep on SVHN (Figure 20)", Run: epochRunner("svhn", appendixPartitions("svhn"))})
	register(Experiment{ID: "fig21", Title: "Local-epoch sweep on FCUBE and FEMNIST (Figure 21)", Run: runFig21})
}

// epochGrid returns the local-epoch values swept at the harness scale. The
// paper sweeps {10, 20, 40, 80}; smaller scales shrink the grid but keep
// the 8x span so the robustness question stays the same.
func (h *Harness) epochGrid() []int {
	switch h.opt.Scale {
	case Paper:
		return []int{10, 20, 40, 80}
	case Quick:
		return []int{2, 4, 8, 16}
	default:
		return []int{1, 2}
	}
}

// sweepEpochs prints the final accuracy of each algorithm for each
// local-epoch count under one setting.
func sweepEpochs(h *Harness, ds string, strat partition.Strategy) error {
	grid := h.epochGrid()
	headers := []string{"algorithm"}
	for _, e := range grid {
		headers = append(headers, fmt.Sprintf("E=%d", e))
	}
	tb := report.NewTable(fmt.Sprintf("%s under %s: final accuracy vs local epochs", ds, strat), headers...)
	for _, algo := range fl.Algorithms() {
		cells := []string{string(algo)}
		for _, e := range grid {
			s := gridCell(ds, strat, algo)
			s.LocalEpochs, s.EvalEvery = e, h.p.rounds
			res, err := h.RunSetting(s)
			if err != nil {
				return fmt.Errorf("%s/%s/%s E=%d: %w", ds, strat, algo, e, err)
			}
			cells = append(cells, report.Percent(res.FinalAccuracy))
		}
		tb.AddRow(cells...)
	}
	tb.Render(h.Out)
	fmt.Fprintln(h.Out)
	return nil
}

func epochRunner(ds string, strats []partition.Strategy) func(*Harness) error {
	return func(h *Harness) error {
		for _, strat := range strats {
			if err := sweepEpochs(h, ds, strat); err != nil {
				return err
			}
		}
		fmt.Fprintln(h.Out, "paper shape: the best epoch count depends on the partition; very large local updates hurt under label skew")
		return nil
	}
}

func runFig21(h *Harness) error {
	if err := sweepEpochs(h, "fcube", partition.Strategy{Kind: partition.FeatureSynthetic}); err != nil {
		return err
	}
	return sweepEpochs(h, "femnist", partition.Strategy{Kind: partition.FeatureRealWorld})
}
