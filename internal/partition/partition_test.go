package partition

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/rng"
)

// validate checks that p covers indices in [0, n) at most once
// and that every party is non-empty if requireNonEmpty is set.
func validate(p Partition, n int, requireNonEmpty bool) error {
	seen := make([]bool, n)
	for pi, idx := range p {
		if requireNonEmpty && len(idx) == 0 {
			return fmt.Errorf("partition: party %d is empty", pi)
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("partition: party %d has out-of-range index %d", pi, i)
			}
			if seen[i] {
				return fmt.Errorf("partition: index %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	return nil
}

// total is the number of samples p assigns.
func total(p Partition) int {
	n := 0
	for _, idx := range p {
		n += len(idx)
	}
	return n
}

// balancedLabels returns n labels cycling through the classes.
func balancedLabels(n, classes int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	return labels
}

func TestIIDCoversAll(t *testing.T) {
	r := rng.New(1)
	p := IID(103, 10, r)
	if err := validate(p, 103, true); err != nil {
		t.Fatal(err)
	}
	if total(p) != 103 {
		t.Fatalf("assigned %d of 103 samples", total(p))
	}
	for _, idx := range p {
		if len(idx) < 10 || len(idx) > 11 {
			t.Fatalf("IID party size %d, want 10 or 11", len(idx))
		}
	}
}

func TestIIDLabelBalance(t *testing.T) {
	r := rng.New(2)
	labels := balancedLabels(1000, 10)
	p := IID(1000, 10, r)
	st := ComputeStats(p, labels, 10)
	if st.LabelImbalance > 0.05 {
		t.Fatalf("IID label imbalance %v too high", st.LabelImbalance)
	}
	if st.QuantityImbalance > 0.01 {
		t.Fatalf("IID quantity imbalance %v too high", st.QuantityImbalance)
	}
}

func TestIIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < parties")
		}
	}()
	IID(3, 10, rng.New(1))
}

func TestQuantityLabelExactClassesPerParty(t *testing.T) {
	r := rng.New(3)
	labels := balancedLabels(2000, 10)
	for _, k := range []int{1, 2, 3, 10} {
		p := QuantityLabel(labels, 10, 10, k, r)
		if err := validate(p, 2000, false); err != nil {
			t.Fatal(err)
		}
		st := ComputeStats(p, labels, 10)
		for pi, row := range st.Counts {
			nonzero := 0
			for _, n := range row {
				if n > 0 {
					nonzero++
				}
			}
			if nonzero > k {
				t.Fatalf("#C=%d: party %d has %d classes", k, pi, nonzero)
			}
			if nonzero == 0 {
				t.Fatalf("#C=%d: party %d empty", k, pi)
			}
		}
	}
}

func TestQuantityLabelCoversAllSamplesWhenPossible(t *testing.T) {
	// With parties*k >= classes every class must be owned, so every sample
	// is assigned.
	r := rng.New(4)
	labels := balancedLabels(500, 10)
	for trial := 0; trial < 20; trial++ {
		p := QuantityLabel(labels, 10, 10, 1, r)
		if total(p) != 500 {
			t.Fatalf("trial %d: only %d/500 samples assigned", trial, total(p))
		}
	}
}

func TestQuantityLabelNoOverlap(t *testing.T) {
	r := rng.New(5)
	labels := balancedLabels(300, 10)
	p := QuantityLabel(labels, 10, 5, 2, r)
	if err := validate(p, 300, false); err != nil {
		t.Fatal(err)
	}
}

func TestQuantityLabelPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	QuantityLabel(balancedLabels(100, 10), 10, 5, 0, rng.New(1))
}

func TestDirichletLabelSkewIncreasesAsBetaShrinks(t *testing.T) {
	labels := balancedLabels(5000, 10)
	imbalance := func(beta float64) float64 {
		r := rng.New(6)
		var total float64
		for trial := 0; trial < 5; trial++ {
			p := DirichletLabel(labels, 10, 10, beta, r)
			st := ComputeStats(p, labels, 10)
			total += st.LabelImbalance
		}
		return total / 5
	}
	low := imbalance(0.1)
	high := imbalance(100)
	if low <= high {
		t.Fatalf("Dir(0.1) imbalance %v should exceed Dir(100) %v", low, high)
	}
	if high > 0.05 {
		t.Fatalf("Dir(100) should be near-IID, imbalance %v", high)
	}
}

func TestDirichletLabelValidAndNonEmpty(t *testing.T) {
	labels := balancedLabels(1000, 10)
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		p := DirichletLabel(labels, 10, 10, 0.5, r)
		if err := validate(p, 1000, true); err != nil {
			t.Fatal(err)
		}
		if total(p) != 1000 {
			t.Fatalf("assigned %d of 1000", total(p))
		}
	}
}

func TestQuantitySkewSizes(t *testing.T) {
	r := rng.New(8)
	p := QuantitySkew(2000, 10, 0.5, r)
	if err := validate(p, 2000, true); err != nil {
		t.Fatal(err)
	}
	if total(p) != 2000 {
		t.Fatalf("assigned %d of 2000", total(p))
	}
	st := ComputeStats(p, balancedLabels(2000, 10), 10)
	if st.QuantityImbalance < 0.3 {
		t.Fatalf("Dir(0.5) quantity imbalance %v suspiciously low", st.QuantityImbalance)
	}
	// Label distribution inside each party should stay close to global.
	if st.LabelImbalance > 0.1 {
		t.Fatalf("quantity skew should not skew labels much: %v", st.LabelImbalance)
	}
}

func TestQuantitySkewBetaEffect(t *testing.T) {
	imbalance := func(beta float64) float64 {
		r := rng.New(9)
		var total float64
		for trial := 0; trial < 10; trial++ {
			p := QuantitySkew(1000, 8, beta, r)
			st := ComputeStats(p, balancedLabels(1000, 2), 2)
			total += st.QuantityImbalance
		}
		return total / 10
	}
	if low, high := imbalance(0.2), imbalance(50); low <= high {
		t.Fatalf("quantity skew should grow as beta shrinks: %v vs %v", low, high)
	}
}

func TestByWriterKeepsWritersIntact(t *testing.T) {
	r := rng.New(10)
	n := 600
	writers := make([]int, n)
	for i := range writers {
		writers[i] = i % 30
	}
	p := ByWriter(writers, 6, r)
	if err := validate(p, n, true); err != nil {
		t.Fatal(err)
	}
	if total(p) != n {
		t.Fatalf("assigned %d of %d", total(p), n)
	}
	// A writer's samples must all land at one party.
	writerParty := map[int]int{}
	for pi, idx := range p {
		for _, i := range idx {
			w := writers[i]
			if prev, ok := writerParty[w]; ok && prev != pi {
				t.Fatalf("writer %d split across parties %d and %d", w, prev, pi)
			}
			writerParty[w] = pi
		}
	}
}

func TestByWriterPanicsWithoutWriters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ByWriter(nil, 4, rng.New(1))
}

func TestFCubePairing(t *testing.T) {
	train, _, err := data.Load("fcube", data.Config{TrainN: 4000, TestN: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := FCube(train, 4)
	if err := validate(p, train.Len(), true); err != nil {
		t.Fatal(err)
	}
	if total(p) != train.Len() {
		t.Fatalf("assigned %d of %d", total(p), train.Len())
	}
	// Each party holds exactly two octants, and they are complements.
	for pi, idx := range p {
		seen := map[int]bool{}
		for _, i := range idx {
			seen[data.FCubeOctant(train.Sample(i))] = true
		}
		if len(seen) != 2 {
			t.Fatalf("party %d holds %d octants", pi, len(seen))
		}
		var os []int
		for o := range seen {
			os = append(os, o)
		}
		if os[0]^os[1] != 7 {
			t.Fatalf("party %d octants %v not symmetric", pi, os)
		}
	}
	// Labels stay balanced per party (the point of the construction).
	st := ComputeStats(p, train.Y, 2)
	for pi, row := range st.Counts {
		ratio := float64(row[0]) / float64(row[0]+row[1])
		if math.Abs(ratio-0.5) > 0.06 {
			t.Fatalf("party %d label ratio %v, want ~0.5", pi, ratio)
		}
	}
}

func TestFCubeRequires4Parties(t *testing.T) {
	train, _, _ := data.Load("fcube", data.Config{TrainN: 100, TestN: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for parties != 4")
		}
	}()
	FCube(train, 10)
}

func TestStrategyStrings(t *testing.T) {
	cases := map[string]Strategy{
		"IID":                     {Kind: Homogeneous},
		"#C=2":                    {Kind: LabelQuantity, K: 2},
		"p_k~Dir(0.5)":            {Kind: LabelDirichlet, Beta: 0.5},
		"x~Gau(0.1)":              {Kind: FeatureNoise, NoiseSigma: 0.1},
		"synthetic":               {Kind: FeatureSynthetic},
		"real-world":              {Kind: FeatureRealWorld},
		"q~Dir(0.5)":              {Kind: Quantity, Beta: 0.5},
		"p_k~Dir(0.5) + Gau(0.1)": {Kind: LabelDirichlet, Beta: 0.5, NoiseSigma: 0.1},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestStrategySplitAppliesNoiseGradient(t *testing.T) {
	train, _, err := data.Load("fmnist", data.Config{TrainN: 400, TestN: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	s := Strategy{Kind: FeatureNoise, NoiseSigma: 0.4}
	part, local, err := s.Split(train, 4, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != 4 {
		t.Fatalf("%d local datasets", len(local))
	}
	// Party i's features should deviate from the originals with std
	// sigma*(i+1)/N — strictly increasing across parties.
	var prev float64
	for pi, ds := range local {
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
		std := math.Sqrt(sq / float64(count))
		want := 0.4 * float64(pi+1) / 4
		if math.Abs(std-want) > 0.05 {
			t.Fatalf("party %d noise std %v, want %v", pi, std, want)
		}
		if std <= prev {
			t.Fatalf("noise levels must increase across parties: %v after %v", std, prev)
		}
		prev = std
	}
}

func TestStrategyMixedLabelPlusNoise(t *testing.T) {
	train, _, err := data.Load("fmnist", data.Config{TrainN: 600, TestN: 50, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	s := Strategy{Kind: LabelDirichlet, Beta: 0.5, NoiseSigma: 0.1}
	part, local, err := s.Split(train, 5, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(part, train.Y, train.NumClasses)
	if st.LabelImbalance < 0.02 {
		t.Fatalf("mixed skew lost its label imbalance: %v", st.LabelImbalance)
	}
	// And features must be perturbed for the last party.
	last := len(local) - 1
	diff := 0.0
	for j, origIdx := range part[last] {
		orig := train.Sample(origIdx)
		noisy := local[last].Sample(j)
		for k := range orig {
			diff += math.Abs(noisy[k] - orig[k])
		}
	}
	if diff == 0 {
		t.Fatal("mixed skew applied no feature noise")
	}
}

func TestStrategyAssignErrors(t *testing.T) {
	train, _, _ := data.Load("adult", data.Config{TrainN: 100, TestN: 10, Seed: 1})
	r := rng.New(1)
	for _, s := range []Strategy{
		{Kind: LabelQuantity, K: 0},
		{Kind: LabelDirichlet, Beta: 0},
		{Kind: Quantity, Beta: -1},
		{Kind: Kind("bogus")},
	} {
		if _, err := s.Assign(train, 4, r); err == nil {
			t.Fatalf("expected error for %+v", s)
		}
	}
}

func TestValidateDetectsDuplicates(t *testing.T) {
	p := Partition{{0, 1}, {1, 2}}
	if err := validate(p, 3, false); err == nil {
		t.Fatal("expected duplicate error")
	}
	p2 := Partition{{0}, {5}}
	if err := validate(p2, 3, false); err == nil {
		t.Fatal("expected range error")
	}
	p3 := Partition{{0}, {}}
	if err := validate(p3, 3, true); err == nil {
		t.Fatal("expected empty-party error")
	}
}

func TestStatsHeatmapRenders(t *testing.T) {
	labels := balancedLabels(100, 4)
	p := IID(100, 2, rng.New(16))
	st := ComputeStats(p, labels, 4)
	s := st.Heatmap()
	if len(s) == 0 {
		t.Fatal("empty heatmap")
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		p := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			p[i] = float64(v) + 1
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		// JS(p, p) == 0 and symmetric, bounded by ln2.
		if jsDivergence(p, p) > 1e-12 {
			return false
		}
		q := make([]float64, len(p))
		copy(q, p)
		q[0], q[len(q)-1] = q[len(q)-1], q[0]
		d1, d2 := jsDivergence(p, q), jsDivergence(q, p)
		return math.Abs(d1-d2) < 1e-12 && d1 <= math.Ln2+1e-12 && d1 >= 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: every strategy produces a valid partition on every dataset it
// supports.
func TestAllStrategiesProduceValidPartitions(t *testing.T) {
	r := rng.New(17)
	femTrain, _, err := data.Load("femnist", data.Config{TrainN: 400, TestN: 50, Writers: 40, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	cifTrain, _, err := data.Load("cifar10", data.Config{TrainN: 400, TestN: 50, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	fcubeTrain, _, err := data.Load("fcube", data.Config{TrainN: 400, TestN: 50, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s       Strategy
		ds      *data.Dataset
		parties int
	}{
		{Strategy{Kind: Homogeneous}, cifTrain, 10},
		{Strategy{Kind: LabelQuantity, K: 1}, cifTrain, 10},
		{Strategy{Kind: LabelQuantity, K: 3}, cifTrain, 10},
		{Strategy{Kind: LabelDirichlet, Beta: 0.5}, cifTrain, 10},
		{Strategy{Kind: FeatureNoise, NoiseSigma: 0.1}, cifTrain, 10},
		{Strategy{Kind: Quantity, Beta: 0.5}, cifTrain, 10},
		{Strategy{Kind: FeatureRealWorld}, femTrain, 10},
		{Strategy{Kind: FeatureSynthetic}, fcubeTrain, 4},
	}
	for _, tc := range cases {
		part, local, err := tc.s.Split(tc.ds, tc.parties, r)
		if err != nil {
			t.Fatalf("%s: %v", tc.s, err)
		}
		if err := validate(part, tc.ds.Len(), false); err != nil {
			t.Fatalf("%s: %v", tc.s, err)
		}
		for pi, ds := range local {
			if ds.Len() != len(part[pi]) {
				t.Fatalf("%s: party %d dataset size %d, partition %d", tc.s, pi, ds.Len(), len(part[pi]))
			}
			if err := ds.Validate(); err != nil {
				t.Fatalf("%s: %v", tc.s, err)
			}
		}
	}
}
