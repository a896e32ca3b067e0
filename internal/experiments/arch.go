package experiments

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "fig23", Title: "Effect of batch size on CIFAR-10, Dir(0.5) (Figure 23 / Appendix D)", Run: runFig23})
	register(Experiment{ID: "fig24", Title: "VGG vs ResNet with batch normalization (Figure 24 / Appendix E)", Run: runFig24})
	register(Experiment{ID: "ablations", Title: "Design ablations: SCAFFOLD variant, BN aggregation, unweighted averaging", Run: runAblations})
}

// batchGrid returns the batch sizes swept at the harness scale. The paper
// sweeps 16..256.
func (h *Harness) batchGrid() []int {
	switch h.opt.Scale {
	case Paper:
		return []int{16, 32, 64, 128, 256}
	case Quick:
		return []int{16, 32, 64, 128}
	default:
		return []int{16, 64}
	}
}

func runFig23(h *Harness) error {
	ds := "cifar10"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	strat := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	for _, algo := range fl.Algorithms() {
		fmt.Fprintf(h.Out, "\n%s on %s under %s:\n", algo, ds, strat)
		for _, bs := range h.batchGrid() {
			s := gridCell(ds, strat, algo)
			s.BatchSize = bs
			res, err := h.RunSetting(s)
			if err != nil {
				return fmt.Errorf("%s bs=%d: %w", algo, bs, err)
			}
			fmt.Fprintln(h.Out, report.Curve(fmt.Sprintf("batch=%d", bs), AccuracyCurve(res)))
		}
	}
	fmt.Fprintln(h.Out, "\npaper shape: larger batches learn more slowly, same as centralized training; heterogeneity does not change the batch-size story")
	return nil
}

func runFig24(h *Harness) error {
	ds := "cifar10"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	strats := []partition.Strategy{
		{Kind: partition.LabelDirichlet, Beta: 0.1},
		{Kind: partition.FeatureNoise, NoiseSigma: 0.1},
		{Kind: partition.Quantity, Beta: 0.1},
	}
	for _, model := range []nn.ModelKind{nn.KindVGG, nn.KindResNet} {
		for _, strat := range strats {
			fmt.Fprintf(h.Out, "\n%s on %s under %s:\n", model, ds, strat)
			for _, algo := range fl.Algorithms() {
				s := gridCell(ds, strat, algo)
				s.Model = model
				res, err := h.RunSetting(s)
				if err != nil {
					return fmt.Errorf("%s/%s/%s: %w", model, strat, algo, err)
				}
				fmt.Fprintln(h.Out, report.Curve(string(algo), AccuracyCurve(res)))
			}
		}
	}
	fmt.Fprintln(h.Out, "\npaper shape: the ResNet-style model (heavier batch-norm use) trains less stably; averaging BN statistics is the culprit")
	return nil
}

// runAblations covers the design decisions DESIGN.md calls out:
//  1. SCAFFOLD control-variate update (i) gradient vs (ii) reuse.
//  2. Plain BN averaging vs keeping BN statistics local (FedBN-style).
//  3. Size-weighted vs unweighted aggregation under quantity skew.
func runAblations(h *Harness) error {
	ds := "cifar10"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	labelSkew := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	qSkew := partition.Strategy{Kind: partition.Quantity, Beta: 0.5}

	tb := report.NewTable("SCAFFOLD control-variate update variant ("+ds+", Dir(0.5))",
		"variant", "final accuracy")
	for _, v := range []struct {
		name string
		v    fl.ScaffoldVariant
	}{{"(i) gradient at global model", fl.ScaffoldGradient}, {"(ii) reuse accumulated update", fl.ScaffoldReuse}} {
		s := gridCell(ds, labelSkew, fl.Scaffold)
		s.Variant, s.EvalEvery = v.v, h.p.rounds
		res, err := h.RunSetting(s)
		if err != nil {
			return err
		}
		tb.AddRow(v.name, report.Percent(res.FinalAccuracy))
	}
	tb.Render(h.Out)
	fmt.Fprintln(h.Out)

	tb2 := report.NewTable("Batch-norm statistics aggregation (VGG on "+ds+", Dir(0.5), FedAvg)",
		"aggregation", "final accuracy")
	for _, v := range []struct {
		name  string
		local bool
	}{{"average BN stats (paper)", false}, {"keep BN stats local (FedBN-style)", true}} {
		s := gridCell(ds, labelSkew, fl.FedAvg)
		s.Model, s.KeepBNStatsLocal, s.EvalEvery = nn.KindVGG, v.local, h.p.rounds
		res, err := h.RunSetting(s)
		if err != nil {
			return err
		}
		tb2.AddRow(v.name, report.Percent(res.FinalAccuracy))
	}
	tb2.Render(h.Out)
	fmt.Fprintln(h.Out)

	tb3 := report.NewTable("Aggregation weighting under quantity skew ("+ds+", q~Dir(0.5), FedAvg)",
		"weighting", "final accuracy")
	for _, v := range []struct {
		name       string
		unweighted bool
	}{{"weighted by |D_i| (paper)", false}, {"unweighted mean", true}} {
		s := gridCell(ds, qSkew, fl.FedAvg)
		s.Unweighted, s.EvalEvery = v.unweighted, h.p.rounds
		res, err := h.RunSetting(s)
		if err != nil {
			return err
		}
		tb3.AddRow(v.name, report.Percent(res.FinalAccuracy))
	}
	tb3.Render(h.Out)
	return nil
}
