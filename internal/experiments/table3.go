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
		ID:    "table3",
		Title: "Top-1 accuracy of FedAvg/FedProx/SCAFFOLD/FedNova across non-IID settings (Table III)",
		Run:   runTable3,
	})
}

// table3Row is one (dataset, partitioning) cell group of Table III.
type table3Row struct {
	category string
	dataset  string
	strategy partition.Strategy
}

// table3Rows mirrors the paper's Table III row list.
func table3Rows() []table3Row {
	var rows []table3Row
	dir05 := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	// Label distribution skew: image datasets get Dir(0.5) and #C=1..3;
	// tabular (2-class) datasets get Dir(0.5) and #C=1.
	for _, ds := range []string{"mnist", "fmnist", "cifar10", "svhn"} {
		rows = append(rows, table3Row{"label-skew", ds, dir05})
		for _, k := range []int{1, 2, 3} {
			rows = append(rows, table3Row{"label-skew", ds, partition.Strategy{Kind: partition.LabelQuantity, K: k}})
		}
	}
	for _, ds := range []string{"adult", "rcv1", "covtype"} {
		rows = append(rows, table3Row{"label-skew", ds, dir05})
		rows = append(rows, table3Row{"label-skew", ds, partition.Strategy{Kind: partition.LabelQuantity, K: 1}})
	}
	// Feature distribution skew.
	for _, ds := range []string{"mnist", "fmnist", "cifar10", "svhn"} {
		rows = append(rows, table3Row{"feature-skew", ds, partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}})
	}
	rows = append(rows, table3Row{"feature-skew", "fcube", partition.Strategy{Kind: partition.FeatureSynthetic}})
	rows = append(rows, table3Row{"feature-skew", "femnist", partition.Strategy{Kind: partition.FeatureRealWorld}})
	// Quantity skew.
	for _, ds := range []string{"mnist", "fmnist", "cifar10", "svhn", "adult", "rcv1", "covtype"} {
		rows = append(rows, table3Row{"quantity-skew", ds, partition.Strategy{Kind: partition.Quantity, Beta: 0.5}})
	}
	// Homogeneous baseline.
	for _, ds := range []string{"mnist", "fmnist", "cifar10", "svhn", "fcube", "femnist", "adult", "rcv1", "covtype"} {
		rows = append(rows, table3Row{"homogeneous", ds, partition.Strategy{Kind: partition.Homogeneous}})
	}
	return rows
}

func runTable3(h *Harness) error {
	tb := report.NewTable("Top-1 test accuracy (mean±std over trials)",
		"category", "dataset", "partitioning", "FedAvg", "FedProx", "SCAFFOLD", "FedNova", "best")
	bestCounts := map[fl.Algorithm]int{}
	algos := fl.Algorithms()
	for _, row := range table3Rows() {
		if !h.opt.wantDataset(row.dataset) {
			continue
		}
		cells := make([]string, 0, len(algos))
		var best fl.Algorithm
		bestAcc := -1.0
		for _, algo := range algos {
			accs, err := h.RunTrials(gridCell(row.dataset, row.strategy, algo))
			if err != nil {
				return fmt.Errorf("%s/%s/%s: %w", row.dataset, row.strategy, algo, err)
			}
			s := metrics.Summarize(accs)
			cells = append(cells, s.String())
			if s.Mean > bestAcc {
				bestAcc, best = s.Mean, algo
			}
		}
		bestCounts[best]++
		tb.AddRow(row.category, row.dataset, row.strategy.String(),
			cells[0], cells[1], cells[2], cells[3], string(best))
		// Stream each completed row so long runs show progress; the
		// aligned table follows at the end.
		fmt.Fprintf(h.Out, "done: %-13s %-8s %-14s avg=%s prox=%s scaf=%s nova=%s best=%s\n",
			row.category, row.dataset, row.strategy, cells[0], cells[1], cells[2], cells[3], best)
	}
	tb.Render(h.Out)
	fmt.Fprintf(h.Out, "\ntimes best: FedAvg=%d FedProx=%d SCAFFOLD=%d FedNova=%d\n",
		bestCounts[fl.FedAvg], bestCounts[fl.FedProx], bestCounts[fl.Scaffold], bestCounts[fl.FedNova])
	fmt.Fprintln(h.Out, "paper shape: label skew (esp. #C=1) hurts most; feature/quantity skew barely hurt FedAvg; no algorithm wins everywhere")
	return nil
}
