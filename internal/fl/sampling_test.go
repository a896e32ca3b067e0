package fl

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestStratifierCoversAllParties(t *testing.T) {
	r := rng.New(1)
	// Four obvious clusters of label distributions.
	dists := [][]float64{
		{1, 0}, {0.9, 0.1}, {0.95, 0.05},
		{0, 1}, {0.1, 0.9},
		{0.5, 0.5}, {0.45, 0.55},
	}
	st := newStratifier(dists, 3, r)
	seen := map[int]bool{}
	for _, c := range st.clusters {
		if len(c) == 0 {
			t.Fatal("empty cluster survived")
		}
		for _, id := range c {
			if seen[id] {
				t.Fatalf("party %d in two clusters", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(dists) {
		t.Fatalf("clustered %d of %d parties", len(seen), len(dists))
	}
}

func TestStratifierSeparatesObviousClusters(t *testing.T) {
	r := rng.New(2)
	dists := [][]float64{
		{1, 0}, {0.98, 0.02}, // cluster A
		{0, 1}, {0.02, 0.98}, // cluster B
	}
	st := newStratifier(dists, 2, r)
	if len(st.clusters) != 2 {
		t.Fatalf("expected 2 clusters, got %d", len(st.clusters))
	}
	// Parties 0,1 must share a cluster and 2,3 the other.
	find := func(id int) int {
		for ci, c := range st.clusters {
			for _, v := range c {
				if v == id {
					return ci
				}
			}
		}
		return -1
	}
	if find(0) != find(1) || find(2) != find(3) || find(0) == find(2) {
		t.Fatalf("clustering wrong: %v", st.clusters)
	}
}

func TestStratifierIdenticalDistributions(t *testing.T) {
	r := rng.New(3)
	dists := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	st := newStratifier(dists, 2, r)
	total := 0
	for _, c := range st.clusters {
		total += len(c)
	}
	if total != 3 {
		t.Fatalf("lost parties: %v", st.clusters)
	}
	s := st.sample(r, nil)
	if len(s) == 0 || len(s) > 2 {
		t.Fatalf("sample size %d", len(s))
	}
}

func TestStratifiedSamplingBalancesLabels(t *testing.T) {
	// Under strong label skew (#C=1) the round-to-round label mixture of
	// the sampled parties should vary less with stratified sampling than
	// with uniform random sampling.
	train, _, err := data.Load("mnist", data.Config{TrainN: 1000, TestN: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	parties := 20
	_, locals, err := partition.Strategy{Kind: partition.LabelQuantity, K: 1}.Split(train, parties, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("mnist")
	variance := func(sampling PartySampling) float64 {
		cfg := Config{
			Algorithm: FedAvg, Rounds: 1, LocalEpochs: 1, BatchSize: 32,
			LR: 0.01, SampleFraction: 0.5, Sampling: sampling, Seed: 11,
		}
		sim, err := NewSimulation(cfg, spec, locals, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Measure the divergence of each sampled mixture from uniform.
		var total float64
		const draws = 60
		for d := 0; d < draws; d++ {
			ids := sim.engine.sampleParties(nil)
			mix := make([]float64, train.NumClasses)
			var n float64
			for _, id := range ids {
				for c, cnt := range locals[id].ClassCounts() {
					mix[c] += float64(cnt)
					n += float64(cnt)
				}
			}
			var dev float64
			for _, v := range mix {
				p := v / n
				dev += (p - 0.1) * (p - 0.1)
			}
			total += math.Sqrt(dev)
		}
		return total / draws
	}
	random := variance(SampleRandom)
	stratified := variance(SampleStratified)
	if stratified >= random {
		t.Fatalf("stratified mixture deviation %v should beat random %v", stratified, random)
	}
}

func TestStratifiedSamplingRuns(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.SampleFraction = 0.5
	cfg.Sampling = SampleStratified
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}, 8, cfg)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Curve {
		if len(m.Sampled) < 1 || len(m.Sampled) > 4 {
			t.Fatalf("sampled %d parties", len(m.Sampled))
		}
	}
}
