package experiments

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
)

func init() {
	register(Experiment{ID: "sampling", Title: "Future direction (Sec. VI-A): stratified vs random party sampling under label skew", Run: runSamplingExt})
}

// runSamplingExt compares the paper's uniform party sampling against the
// stratified sampler it proposes as a future direction, under the most
// sampling-hostile setting (quantity-based label imbalance with partial
// participation).
func runSamplingExt(h *Harness) error {
	ds := "mnist"
	if len(h.opt.Datasets) == 1 {
		ds = h.opt.Datasets[0]
	}
	parties, fraction, rounds := h.samplingGeometry()
	s := gridCell(ds, partition.Strategy{Kind: partition.LabelQuantity, K: 1}, fl.FedAvg)
	s.Parties, s.SampleFraction, s.Rounds = parties, fraction, rounds
	fmt.Fprintf(h.Out, "%s, %s, %d parties, fraction %g, FedAvg\n\n", ds, s.Strategy, parties, fraction)
	for _, sampling := range []fl.PartySampling{fl.SampleRandom, fl.SampleStratified} {
		s.Sampling = sampling
		res, err := h.RunSetting(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(h.Out, report.Curve(string(sampling), AccuracyCurve(res)))
	}
	fmt.Fprintln(h.Out, "\nexpected shape: stratified sampling keeps the per-round class mixture balanced, stabilizing the curve")
	return nil
}
