package experiments

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "fig8", Title: "Training curves on CIFAR-10: Dir(0.5) and Gau(0.1) (Figure 8)", Run: runFig8})
	register(Experiment{ID: "fig12", Title: "Training curves on CIFAR-10, remaining partitions (Figure 12)", Run: curveRunner("cifar10", appendixPartitions("cifar10"))})
	register(Experiment{ID: "fig13", Title: "Training curves on MNIST (Figure 13)", Run: curveRunner("mnist", appendixPartitions("mnist"))})
	register(Experiment{ID: "fig14", Title: "Training curves on FMNIST (Figure 14)", Run: curveRunner("fmnist", appendixPartitions("fmnist"))})
	register(Experiment{ID: "fig15", Title: "Training curves on SVHN (Figure 15)", Run: curveRunner("svhn", appendixPartitions("svhn"))})
	register(Experiment{ID: "fig16", Title: "Training curves on FCUBE and FEMNIST (Figure 16)", Run: runFig16})
}

// plotCurves runs the four algorithms under one (dataset, strategy)
// setting and prints their accuracy-versus-round curves.
func plotCurves(h *Harness, ds string, strat partition.Strategy) error {
	fmt.Fprintf(h.Out, "\n%s under %s:\n", ds, strat)
	for _, algo := range fl.Algorithms() {
		res, err := h.RunSetting(gridCell(ds, strat, algo))
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", ds, strat, algo, err)
		}
		label := string(algo)
		if algo == fl.FedProx {
			label = fmt.Sprintf("%s(mu=%g)", algo, 0.01)
		}
		fmt.Fprintln(h.Out, report.Curve(label, AccuracyCurve(res)))
	}
	return nil
}

func runFig8(h *Harness) error {
	for _, strat := range []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.5},
		{Kind: partition.FeatureNoise, NoiseSigma: 0.1},
	} {
		if err := plotCurves(h, "cifar10", strat); err != nil {
			return err
		}
	}
	fmt.Fprintln(h.Out, "\npaper shape: FedProx tracks FedAvg closely; SCAFFOLD/FedNova are less stable")
	return nil
}

// appendixPartitions lists the partitions used in the appendix curve
// figures for a dataset.
func appendixPartitions(ds string) []partition.Strategy {
	strats := []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.5},
		{Kind: partition.LabelQuantity, K: 1},
		{Kind: partition.LabelQuantity, K: 2},
		{Kind: partition.LabelQuantity, K: 3},
		{Kind: partition.FeatureNoise, NoiseSigma: 0.1},
		{Kind: partition.Quantity, Beta: 0.5},
	}
	return strats
}

// curveRunner builds a Run function that plots the appendix curves for one
// dataset.
func curveRunner(ds string, strats []partition.Strategy) func(*Harness) error {
	return func(h *Harness) error {
		for _, strat := range strats {
			if err := plotCurves(h, ds, strat); err != nil {
				return err
			}
		}
		return nil
	}
}

func runFig16(h *Harness) error {
	if err := plotCurves(h, "fcube", partition.Strategy{Kind: partition.FeatureSynthetic}); err != nil {
		return err
	}
	return plotCurves(h, "femnist", partition.Strategy{Kind: partition.FeatureRealWorld})
}
