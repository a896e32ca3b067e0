package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
)

// The paper's sweeps, as data. A grid names its default dataset ("" for
// one spanning several), what its cells report and its panels — each a
// base setting, a row axis and a column axis — and nothing else: trials,
// seeds, μ tuning, the dataset rule, skips, concurrency and rendering are
// the runner's (grid.go).

var (
	dir05   = partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	noise   = partition.Strategy{Kind: partition.FeatureNoise, NoiseSigma: 0.1}
	qty05   = partition.Strategy{Kind: partition.Quantity, Beta: 0.5}
	iid     = partition.Strategy{Kind: partition.Homogeneous}
	cube    = partition.Strategy{Kind: partition.FeatureSynthetic}
	writers = partition.Strategy{Kind: partition.FeatureRealWorld}

	// appendix is the partition list of the appendix figures.
	appendix = []partition.Strategy{dir05, numC(1), numC(2), numC(3), noise, qty05}
	images   = []string{"mnist", "fmnist", "cifar10", "svhn"}
	tabular  = []string{"adult", "rcv1", "covtype"}

	// Algorithm labels other than the algorithm's own name: the paper's
	// table headers, and FedProx with its μ in the curve figures.
	paperNames = map[fl.Algorithm]string{fl.FedAvg: "FedAvg", fl.FedProx: "FedProx", fl.Scaffold: "SCAFFOLD", fl.FedNova: "FedNova"}
	curveNames = map[fl.Algorithm]string{fl.FedProx: "fedprox(mu=0.01)"}

	// Curve panels of the studied four and of all six algorithms.
	curves4 = curvesOf(algos(fl.Algorithms(), curveNames))
	curves6 = curvesOf(algos(fl.ExtendedAlgorithms(), nil))
)

const (
	epochShape  = "\npaper shape: the best epoch count depends on the partition; very large local updates hurt under label skew\n"
	sampleShape = "\npaper shape: curves are unstable under sampling; SCAFFOLD degrades badly (stale control variates)\n"
)

// grids lists the sweep artifacts.
var grids = []grid{
	{id: "table3", title: "Top-1 accuracy of FedAvg/FedProx/SCAFFOLD/FedNova across non-IID settings (Table III)", value: trials, layout: layoutTable3, render: table3,
		footer: "paper shape: label skew (esp. #C=1) hurts most; feature/quantity skew barely hurt FedAvg; no algorithm wins everywhere\n"},
	{id: "table5", title: "Mixed types of skew on CIFAR-10 (Table V)", dataset: "cifar10", value: trials, layout: layoutTable5,
		footer: "\npaper shape: mixed skew degrades accuracy below each single skew; quantity skew wrecks SCAFFOLD/FedNova either way\n"},

	{id: "fig8", title: "Training curves on CIFAR-10: Dir(0.5) and Gau(0.1) (Figure 8)", dataset: "cifar10", layout: on(curves4, dir05, noise),
		footer: "\npaper shape: FedProx tracks FedAvg closely; SCAFFOLD/FedNova are less stable\n"},
	{id: "fig12", title: "Training curves on CIFAR-10, remaining partitions (Figure 12)", dataset: "cifar10", layout: on(curves4, appendix...)},
	{id: "fig13", title: "Training curves on MNIST (Figure 13)", dataset: "mnist", layout: on(curves4, appendix...)},
	{id: "fig14", title: "Training curves on FMNIST (Figure 14)", dataset: "fmnist", layout: on(curves4, appendix...)},
	{id: "fig15", title: "Training curves on SVHN (Figure 15)", dataset: "svhn", layout: on(curves4, appendix...)},
	{id: "fig16", title: "Training curves on FCUBE and FEMNIST (Figure 16)", layout: onEach(curves4)},

	{id: "fig9", title: "Effect of the number of local epochs on CIFAR-10 (Figure 9)", dataset: "cifar10", value: final, layout: on(epochs, dir05, noise), footer: epochShape},
	{id: "fig17", title: "Local-epoch sweep on CIFAR-10, remaining partitions (Figure 17)", dataset: "cifar10", value: final, layout: on(epochs, numC(1), numC(2), numC(3), qty05), footer: epochShape},
	{id: "fig18", title: "Local-epoch sweep on MNIST (Figure 18)", dataset: "mnist", value: final, layout: on(epochs, appendix...), footer: epochShape},
	{id: "fig19", title: "Local-epoch sweep on FMNIST (Figure 19)", dataset: "fmnist", value: final, layout: on(epochs, appendix...), footer: epochShape},
	{id: "fig20", title: "Local-epoch sweep on SVHN (Figure 20)", dataset: "svhn", value: final, layout: on(epochs, appendix...), footer: epochShape},
	{id: "fig21", title: "Local-epoch sweep on FCUBE and FEMNIST (Figure 21)", value: final, layout: onEach(epochs), footer: "\n"},

	{id: "fig10", title: "Party sampling: many parties, fraction 0.1, Dir(0.5) and q~Dir(0.5) (Figure 10)", dataset: "cifar10", layout: sampled(dir05, qty05), footer: sampleShape},
	{id: "fig22", title: "Party sampling: remaining partitions (Figure 22)", dataset: "cifar10", layout: sampled(numC(1), numC(2), numC(3), iid), footer: sampleShape},
	{id: "fig11", title: "Scalability: accuracy vs number of parties (Figure 11)", dataset: "cifar10", value: final, layout: on(parties, dir05, noise),
		footer: "\npaper shape: accuracy decreases as the number of parties grows (less local data each)\n"},
	{id: "fig23", title: "Effect of batch size on CIFAR-10, Dir(0.5) (Figure 23 / Appendix D)", dataset: "cifar10", layout: layoutFig23,
		footer: "\npaper shape: larger batches learn more slowly, same as centralized training; heterogeneity does not change the batch-size story\n"},
	{id: "fig24", title: "VGG vs ResNet with batch normalization (Figure 24 / Appendix E)", dataset: "cifar10", layout: layoutFig24,
		footer: "\npaper shape: the ResNet-style model (heavier batch-norm use) trains less stably; averaging BN statistics is the culprit\n"},
	{id: "ablations", title: "Design ablations: SCAFFOLD variant, BN aggregation, unweighted averaging", dataset: "cifar10", value: final, layout: layoutAblations},

	{id: "leaderboard", title: "Leaderboard: rank all algorithms (incl. FedDyn/MOON extensions) across non-IID settings", value: final, layout: layoutLeaderboard, render: leaderboard},
	{id: "extensions", title: "Extension algorithms (FedDyn, MOON) vs the studied four on label skew", dataset: "mnist", layout: on(curves6, dir05, numC(2)),
		footer: "\nFedDyn and MOON are the paper's listed future comparisons (Section III-D)\n"},
	{id: "sampling", title: "Future direction (Sec. VI-A): stratified vs random party sampling under label skew", dataset: "mnist", layout: layoutSampling,
		footer: "\nexpected shape: stratified sampling keeps the per-round class mixture balanced, stabilizing the curve\n"},
}

func numC(k int) partition.Strategy { return partition.Strategy{Kind: partition.LabelQuantity, K: k} }

func at(ds string, st partition.Strategy) setting { return setting{Dataset: ds, Strategy: st} }

// algos is an algorithm axis, each labelled by names or else by its name.
func algos(list []fl.Algorithm, names map[fl.Algorithm]string) []variant {
	out := make([]variant, len(list))
	for i, a := range list {
		out[i] = variant{cmp.Or(names[a], string(a)), func(s *setting) { s.Algorithm = a }}
	}
	return out
}

// axis is one variant per value, labelled by format.
func axis[T any](format string, values []T, set func(*setting, T)) []variant {
	out := make([]variant, len(values))
	for i, v := range values {
		out[i] = variant{fmt.Sprintf(format, v), func(s *setting) { set(s, v) }}
	}
	return out
}

// on lays out one panel per strategy on the grid's dataset.
func on(panel func(*sweep, setting), strats ...partition.Strategy) func(*sweep) {
	return func(sw *sweep) {
		for _, st := range strats {
			panel(sw, at(sw.ds, st))
		}
	}
}

// onEach lays out one panel on FCUBE and one on FEMNIST, each under its
// own feature skew.
func onEach(panel func(*sweep, setting)) func(*sweep) {
	return func(sw *sweep) {
		panel(sw, at("fcube", cube))
		panel(sw, at("femnist", writers))
	}
}

// curvesOf is a panel of one curve per algorithm.
func curvesOf(cols []variant) func(*sweep, setting) {
	return func(sw *sweep, b setting) {
		sw.add(b, fmt.Sprintf("\n%s under %s:\n", b.Dataset, b.Strategy), "", nil, cols)
	}
}

func epochs(sw *sweep, b setting) {
	sw.add(b, fmt.Sprintf("%s under %s: final accuracy vs local epochs", b.Dataset, b.Strategy), "algorithm",
		algos(fl.Algorithms(), nil), axis("E=%d", sw.p.epochGrid, func(s *setting, v int) { s.LocalEpochs = v }))
}

func parties(sw *sweep, b setting) {
	sw.add(b, fmt.Sprintf("%s under %s: final accuracy vs parties", b.Dataset, b.Strategy), "algorithm",
		algos(fl.Algorithms(), nil), axis("N=%d", sw.p.partyGrid, func(s *setting, v int) { s.Parties = v }))
}

// partial puts a setting under the profile's partial participation.
func partial(sw *sweep, b setting) setting {
	b.Parties, b.SampleFraction, b.Rounds = sw.p.sampleParties, sw.p.sampleFraction, sw.p.sampleRounds
	return b
}

// sampled is Figures 10/22: the four algorithms under partial
// participation.
func sampled(strats ...partition.Strategy) func(*sweep) {
	return func(sw *sweep) {
		sw.header = fmt.Sprintf("%s, %d parties, sample fraction %g, %d rounds\n", sw.ds, sw.p.sampleParties, sw.p.sampleFraction, sw.p.sampleRounds)
		for _, st := range strats {
			sw.add(partial(sw, at(sw.ds, st)), fmt.Sprintf("\nunder %s:\n", st), "", nil, algos(fl.Algorithms(), nil))
		}
	}
}

// layoutTable3 mirrors the paper's Table III row list.
func layoutTable3(sw *sweep) {
	sw.add(setting{}, "", "", slices.Concat(
		where("label-skew", images, dir05, numC(1), numC(2), numC(3)),
		where("label-skew", tabular, dir05, numC(1)),
		where("feature-skew", images, noise),
		where("feature-skew", []string{"fcube"}, cube),
		where("feature-skew", []string{"femnist"}, writers),
		where("quantity-skew", slices.Concat(images, tabular), qty05),
		where("homogeneous", []string{"mnist", "fmnist", "cifar10", "svhn", "fcube", "femnist", "adult", "rcv1", "covtype"}, iid),
	), algos(fl.Algorithms(), nil))
}

// where is a row axis across datasets: one row per dataset and strategy,
// each labelled label.
func where(label string, datasets []string, strats ...partition.Strategy) (rows []variant) {
	for _, ds := range datasets {
		for _, st := range strats {
			rows = append(rows, variant{label, func(s *setting) { s.Dataset, s.Strategy = ds, st }})
		}
	}
	return rows
}

// layoutTable5 is the paper's two mixed-skew cases, each beside its
// single-skew components.
func layoutTable5(sw *sweep) {
	split := func(label string, st partition.Strategy) variant {
		return variant{label, func(s *setting) { s.Strategy = st }}
	}
	mixed := func(title string, rows ...variant) {
		sw.add(setting{Dataset: sw.ds}, title+" ("+sw.ds+")", "setting", rows, algos(fl.Algorithms(), paperNames))
	}
	mixed("Case 1: label skew + feature skew", split("label skew", dir05), split("feature skew", noise),
		split("label + feature", partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5, NoiseSigma: 0.1}))
	mixed("Case 2: feature skew + quantity skew", split("feature skew", noise), split("quantity skew", qty05),
		split("feature + quantity", partition.Strategy{Kind: partition.Quantity, Beta: 0.5, NoiseSigma: 0.1}))
}

func layoutFig23(sw *sweep) {
	for _, a := range algos(fl.Algorithms(), nil) { // one panel per algorithm
		sw.add(a.apply(at(sw.ds, dir05)), fmt.Sprintf("\n%s on %s under %s:\n", a.label, sw.ds, dir05), "", nil,
			axis("batch=%d", sw.p.batchGrid, func(s *setting, v int) { s.BatchSize = v }))
	}
}

func layoutFig24(sw *sweep) {
	for _, model := range []nn.ModelKind{nn.KindVGG, nn.KindResNet} {
		for _, st := range []partition.Strategy{{Kind: partition.LabelDirichlet, Beta: 0.1}, noise, {Kind: partition.Quantity, Beta: 0.1}} {
			b := at(sw.ds, st)
			b.Model = model
			sw.add(b, fmt.Sprintf("\n%s on %s under %s:\n", model, sw.ds, st), "", nil, algos(fl.Algorithms(), nil))
		}
	}
}

// layoutAblations covers three design decisions: SCAFFOLD's control-variate
// update (i) gradient vs (ii) reuse; plain BN averaging vs keeping BN
// statistics local (FedBN-style); size-weighted vs unweighted aggregation
// under quantity skew.
func layoutAblations(sw *sweep) {
	ds, acc := sw.ds, []variant{{label: "final accuracy"}}
	scaffold, vgg, skewed := at(ds, dir05), at(ds, dir05), at(ds, qty05)
	scaffold.Algorithm, vgg.Algorithm, skewed.Algorithm, vgg.Model = fl.Scaffold, fl.FedAvg, fl.FedAvg, nn.KindVGG
	sw.add(scaffold, "SCAFFOLD control-variate update variant ("+ds+", Dir(0.5))", "variant", []variant{
		{"(i) gradient at global model", func(s *setting) { s.Variant = fl.ScaffoldGradient }},
		{"(ii) reuse accumulated update", func(s *setting) { s.Variant = fl.ScaffoldReuse }}}, acc)
	sw.add(vgg, "Batch-norm statistics aggregation (VGG on "+ds+", Dir(0.5), FedAvg)", "aggregation", []variant{
		{"average BN stats (paper)", nil},
		{"keep BN stats local (FedBN-style)", func(s *setting) { s.KeepBNStatsLocal = true }}}, acc)
	sw.add(skewed, "Aggregation weighting under quantity skew ("+ds+", q~Dir(0.5), FedAvg)", "weighting", []variant{
		{"weighted by |D_i| (paper)", nil},
		{"unweighted mean", func(s *setting) { s.Unweighted = true }}}, acc)
}

// layoutLeaderboard is the panel of settings the algorithms are ranked on
// (the public leaderboard the paper maintains): one of each skew type plus
// the IID baseline.
func layoutLeaderboard(sw *sweep) {
	rows := slices.Concat(where("", []string{"mnist"}, dir05, numC(2)), where("", []string{"fmnist"}, noise), where("", []string{"adult"}, qty05, iid))
	sw.add(setting{}, "", "", rows, algos(fl.ExtendedAlgorithms(), nil))
}

// layoutSampling compares uniform party sampling against the stratified
// sampler the paper proposes (Sec. VI-A), under the most sampling-hostile
// setting: #C=1 with partial participation.
func layoutSampling(sw *sweep) {
	b := partial(sw, at(sw.ds, numC(1)))
	b.Algorithm = fl.FedAvg
	sw.header = fmt.Sprintf("%s, %s, %d parties, fraction %g, FedAvg\n\n", b.Dataset, b.Strategy, b.Parties, b.SampleFraction)
	sw.add(b, "", "", nil, axis("%s", []fl.PartySampling{fl.SampleRandom, fl.SampleStratified}, func(s *setting, m fl.PartySampling) { s.Sampling = m }))
}
