package experiments

// The data and partition reports: Table II and Figures 3–7 print
// statistics of the datasets and partitions themselves; nothing trains.

import (
	"fmt"
	"math"
	"strings"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/rng"
)

// runTable2 prints the statistics of every dataset at the harness scale
// next to the original sizes from the paper's Table II.
func runTable2(h *harness) error {
	tb := report.NewTable("Datasets (synthetic stand-ins; paper sizes for reference)",
		"dataset", "#train", "#test", "#features", "#classes", "paper #train", "paper #test")
	for _, name := range data.Names() {
		if !h.opt.wantDataset(name) {
			continue
		}
		train, test, err := h.load(name)
		if err != nil {
			return err
		}
		pTrain, pTest, err := data.PaperSizes(name)
		if err != nil {
			return err
		}
		tb.AddRow(name,
			fmt.Sprint(train.Len()), fmt.Sprint(test.Len()),
			fmt.Sprint(train.FeatLen), fmt.Sprint(train.NumClasses),
			fmt.Sprint(pTrain), fmt.Sprint(pTest))
	}
	tb.Render(h.out)
	return nil
}

// runFig3 reproduces the paper's two motivating measurements: (a) a
// Criteo-like CTR log partitioned by user shows natural label and quantity
// skew; (b) two digit corpora (MNIST-like and SVHN-like) share labels but
// have different feature distributions.
func runFig3(h *harness) error {
	// (a) Criteo: take each user group as a party.
	train, _, err := h.load("criteo")
	if err != nil {
		return err
	}
	parties := 10
	part := partition.ByWriter(train.Writers, parties, rng.New(h.opt.Seed))
	st := partition.ComputeStats(part, train.Y, train.NumClasses)
	fmt.Fprintln(h.out, "(a) Criteo-like CTR log, one user group per party:")
	fmt.Fprintln(h.out)
	fmt.Fprint(h.out, st.Heatmap())
	fmt.Fprintf(h.out, "\nlabel imbalance: %.4f, quantity imbalance: %.4f\n", st.LabelImbalance, st.QuantityImbalance)
	fmt.Fprintln(h.out, "-> both label distribution skew and quantity skew arise naturally")

	// (b) Digits: same labels, different domains. Compare per-class
	// feature centroids within a domain against across domains.
	mnist, _, err := h.load("mnist")
	if err != nil {
		return err
	}
	svhnGray, _, err := h.load("fmnist") // a second 1-channel domain
	if err != nil {
		return err
	}
	within, across := centroidDistances(mnist, svhnGray)
	fmt.Fprintln(h.out, "\n(b) Digits: two domains with the same label space:")
	fmt.Fprintf(h.out, "mean centroid distance between classes within a domain:  %.3f\n", within)
	fmt.Fprintf(h.out, "mean centroid distance of the SAME class across domains: %.3f\n", across)
	if across > within/2 {
		fmt.Fprintln(h.out, "-> same-class features differ across domains: feature distribution skew")
	}
	return nil
}

// centroidDistances computes (1) the mean distance between different-class
// centroids inside dataset a and (2) the mean distance between same-class
// centroids across a and b. Both datasets must share FeatLen and classes.
func centroidDistances(a, b *data.Dataset) (within, across float64) {
	ca := classCentroids(a)
	cb := classCentroids(b)
	var wSum float64
	wCount := 0
	for i := range ca {
		for j := i + 1; j < len(ca); j++ {
			wSum += euclid(ca[i], ca[j])
			wCount++
		}
	}
	var aSum float64
	for i := range ca {
		aSum += euclid(ca[i], cb[i])
	}
	return wSum / float64(wCount), aSum / float64(len(ca))
}

func classCentroids(d *data.Dataset) [][]float64 {
	cents, counts := make([][]float64, d.NumClasses), d.ClassCounts()
	for c := range cents {
		cents[c] = make([]float64, d.FeatLen)
	}
	for i, y := range d.Y {
		for j, v := range d.Sample(i) {
			cents[y][j] += v
		}
	}
	for c := range cents {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range cents[c] {
			cents[c][j] *= inv
		}
	}
	return cents
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// runFig4 prints the party-by-class sample-count matrix of a Dir(0.5)
// label-imbalance partition of MNIST, the text analogue of Figure 4.
func runFig4(h *harness) error {
	train, _, err := h.load("mnist")
	if err != nil {
		return err
	}
	strat := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	part, err := strat.Assign(train, h.p.parties, rng.New(h.opt.Seed))
	if err != nil {
		return err
	}
	st := partition.ComputeStats(part, train.Y, train.NumClasses)
	fmt.Fprintf(h.out, "MNIST, p_k~Dir(0.5), %d parties\n\n", h.p.parties)
	fmt.Fprint(h.out, st.Heatmap())
	fmt.Fprintf(h.out, "\nlabel imbalance (mean JS divergence to global): %.4f\n", st.LabelImbalance)
	return nil
}

// runFig5 quantifies the noise-based feature imbalance example: the
// per-party feature deviation from the clean data for increasing noise
// levels, the measurement behind Figure 5's visual.
func runFig5(h *harness) error {
	train, _, err := h.load("fmnist")
	if err != nil {
		return err
	}
	parties := 4
	strat := partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}
	part, locals, err := strat.Split(train, parties, rng.New(h.opt.Seed))
	if err != nil {
		return err
	}
	tb := report.NewTable("FMNIST with x~Gau(0.1): per-party feature noise",
		"party", "noise level sigma*i/N", "measured deviation (std)")
	for pi, ds := range locals {
		var sq float64
		count := 0
		for j, origIdx := range part[pi] {
			orig := train.Sample(origIdx)
			noisy := ds.Sample(j)
			for k := range orig {
				d := noisy[k] - orig[k]
				sq += d * d
				count++
			}
		}
		measured := math.Sqrt(sq / float64(count))
		tb.AddRow(fmt.Sprintf("P%d", pi), fmt.Sprintf("%.4f", 0.1*float64(pi+1)/float64(parties)), fmt.Sprintf("%.4f", measured))
	}
	tb.Render(h.out)
	return nil
}

// runFig6 reports the FCUBE allocation: which octants each party holds and
// its label balance — the content of Figure 6 in table form.
func runFig6(h *harness) error {
	train, _, err := h.load("fcube")
	if err != nil {
		return err
	}
	part := partition.FCube(train, 4)
	tb := report.NewTable("FCUBE: symmetric-octant allocation over 4 parties",
		"party", "octants", "#samples", "label0", "label1")
	for pi, idx := range part {
		var seen [8]bool
		counts := [2]int{}
		for _, i := range idx {
			seen[data.FCubeOctant(train.Sample(i))] = true
			counts[train.Y[i]]++
		}
		var octs []string
		for o, in := range seen {
			if in {
				octs = append(octs, fmt.Sprint(o))
			}
		}
		tb.AddRow(fmt.Sprintf("P%d", pi), strings.Join(octs, ","), fmt.Sprint(len(idx)),
			fmt.Sprint(counts[0]), fmt.Sprint(counts[1]))
	}
	tb.Render(h.out)
	fmt.Fprintln(h.out, "\nfeature distributions differ per party (different cube regions) while labels stay balanced")
	return nil
}

// runFig7 prints the paper's decision tree for choosing an FL algorithm
// from the observed non-IID setting.
func runFig7(h *harness) error {
	fmt.Fprint(h.out, `Non-IID data setting
├── Label distribution skew
│   ├── Distribution-based label imbalance
│   │   ├── Image datasets   -> FedAvg / FedProx
│   │   └── Tabular datasets -> FedProx
│   └── Quantity-based label imbalance -> SCAFFOLD (images, mild skew) / FedProx (#C=1)
├── Feature distribution skew -> SCAFFOLD
└── Quantity skew             -> FedProx
`)
	return nil
}
