package data

import (
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestLoadAllFamilies(t *testing.T) {
	for _, name := range Names() {
		train, test, err := Load(name, Config{TrainN: 200, TestN: 80, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if train.Len() != 200 || test.Len() != 80 {
			t.Fatalf("%s: sizes %d/%d", name, train.Len(), test.Len())
		}
		if err := train.Validate(); err != nil {
			t.Fatalf("%s train: %v", name, err)
		}
		if err := test.Validate(); err != nil {
			t.Fatalf("%s test: %v", name, err)
		}
		spec, err := Model(name)
		if err != nil {
			t.Fatal(err)
		}
		// The model takes the dataset's batches: a flat batch reshapes to
		// the model's input and forwards to one logit row per sample.
		x, _ := train.BatchInto(nil, nil, []int{0, 1})
		if logits := nn.Build(spec, rng.New(1)).Forward(spec.ShapeBatch(x), false); logits.Dim(0) != 2 || logits.Dim(1) != spec.Classes {
			t.Fatalf("%s: %d features forward to logits %v", name, train.FeatLen, logits.Shape())
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, _, err := Load("nope", Config{}); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, _, err := Load("mnist", Config{TrainN: 100, TestN: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Load("mnist", Config{TrainN: 100, TestN: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c, _, err := Load("mnist", Config{TrainN: 100, TestN: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.X {
		if a.X[i] != c.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestClassBalanceImages(t *testing.T) {
	train, _, err := Load("mnist", Config{TrainN: 1000, TestN: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := train.ClassCounts()
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d count %d, want balanced 100", c, n)
		}
	}
}

func TestAdultImbalanced(t *testing.T) {
	train, _, err := Load("adult", Config{TrainN: 3000, TestN: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := train.LabelDistribution()
	if p[1] < 0.15 || p[1] > 0.35 {
		t.Fatalf("adult positive rate %v, want ~0.24", p[1])
	}
}

func TestRcv1RoughlyBalanced(t *testing.T) {
	train, _, err := Load("rcv1", Config{TrainN: 2000, TestN: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := train.LabelDistribution()
	if math.Abs(p[1]-0.5) > 0.08 {
		t.Fatalf("rcv1 positive rate %v, want ~0.5", p[1])
	}
}

func TestFCubeExactGeometry(t *testing.T) {
	train, test, err := Load("fcube", Config{TrainN: 4000, TestN: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{train, test} {
		for i := 0; i < d.Len(); i++ {
			row := d.Sample(i)
			for _, v := range row {
				if v < -1 || v > 1 {
					t.Fatalf("fcube coordinate %v outside [-1,1]", v)
				}
			}
			wantY := 0
			if row[0] < 0 {
				wantY = 1
			}
			if d.Y[i] != wantY {
				t.Fatalf("fcube label %d for x1=%v", d.Y[i], row[0])
			}
		}
	}
}

func TestFCubeOctants(t *testing.T) {
	if FCubeOctant([]float64{1, 1, 1}) != 7 {
		t.Fatal("octant of (+,+,+) should be 7")
	}
	if FCubeOctant([]float64{-1, -1, -1}) != 0 {
		t.Fatal("octant of (-,-,-) should be 0")
	}
	// Symmetric octants are bitwise complements.
	if FCubeOctant([]float64{1, -1, 1})^FCubeOctant([]float64{-1, 1, -1}) != 7 {
		t.Fatal("symmetric octants must be complements")
	}
}

func TestFemnistWriters(t *testing.T) {
	train, test, err := Load("femnist", Config{TrainN: 500, TestN: 100, Writers: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Writers) != train.Len() || len(test.Writers) != test.Len() {
		t.Fatal("femnist must attribute every sample to a writer")
	}
	seen := map[int]bool{}
	for _, w := range train.Writers {
		if w < 0 || w >= 20 {
			t.Fatalf("writer %d out of range", w)
		}
		seen[w] = true
	}
	if len(seen) < 15 {
		t.Fatalf("only %d/20 writers present", len(seen))
	}
}

func TestStandardized(t *testing.T) {
	train, _, err := Load("cifar10", Config{TrainN: 500, TestN: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Overall mean should be ~0 and variance ~1 after per-feature
	// standardization.
	var sum, sq float64
	for _, v := range train.X {
		sum += v
		sq += v * v
	}
	n := float64(len(train.X))
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("standardization: mean %v var %v", mean, variance)
	}
}

func TestSubsetMaterializes(t *testing.T) {
	train, _, err := Load("adult", Config{TrainN: 100, TestN: 50, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub := train.Subset([]int{5, 10, 15})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if sub.Y[1] != train.Y[10] {
		t.Fatal("subset labels wrong")
	}
	sub.X[0] = 999
	if train.Sample(5)[0] == 999 {
		t.Fatal("subset should not alias parent storage")
	}
}

func TestBatchGather(t *testing.T) {
	train, _, err := Load("covtype", Config{TrainN: 60, TestN: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x, labels := train.BatchInto(nil, nil, []int{2, 4})
	if x.Dim(0) != 2 || x.Dim(1) != train.FeatLen {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if labels[0] != train.Y[2] || labels[1] != train.Y[4] {
		t.Fatal("batch labels wrong")
	}
	for j := 0; j < train.FeatLen; j++ {
		if x.Data()[train.FeatLen+j] != train.Sample(4)[j] {
			t.Fatal("batch features wrong")
		}
	}
}

func TestAddGaussianNoise(t *testing.T) {
	train, _, err := Load("fmnist", Config{TrainN: 200, TestN: 50, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	noisy := AddGaussianNoise(train, 0.5, rng.New(1))
	var sq float64
	for i := range train.X {
		d := noisy.X[i] - train.X[i]
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(train.X)))
	if math.Abs(std-0.5) > 0.05 {
		t.Fatalf("noise std %v, want 0.5", std)
	}
	// Zero noise level must be a plain copy.
	clean := AddGaussianNoise(train, 0, rng.New(1))
	for i := range train.X {
		if clean.X[i] != train.X[i] {
			t.Fatal("zero noise changed data")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	train, _, err := Load("adult", Config{TrainN: 50, TestN: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	train.Y[0] = 99
	if err := train.Validate(); err == nil {
		t.Fatal("expected validation error for bad label")
	}
}

func TestQuantileAndSort(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if q := quantile(v, 0.5); q != 3 {
		t.Fatalf("median: %v", q)
	}
	if q := quantile(v, 0); q != 1 {
		t.Fatalf("min: %v", q)
	}
	if q := quantile(v, 1); q != 5 {
		t.Fatalf("max: %v", q)
	}
}

func TestLogistic(t *testing.T) {
	if logistic(0) != 0.5 {
		t.Fatal("logistic(0) != 0.5")
	}
	if logistic(10) < 0.99 || logistic(-10) > 0.01 {
		t.Fatal("logistic saturation wrong")
	}
}

func TestPaperSizes(t *testing.T) {
	tr, te, err := PaperSizes("mnist")
	if err != nil || tr != 60000 || te != 10000 {
		t.Fatalf("paper sizes: %d %d %v", tr, te, err)
	}
	if _, _, err := PaperSizes("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestDifficultyOrdering verifies the calibration that drives the paper's
// Finding (3): a quick centralized linear probe should find MNIST-like
// much easier than CIFAR-like.
func TestDifficultyOrdering(t *testing.T) {
	acc := func(name string) float64 {
		train, test, err := Load(name, Config{TrainN: 800, TestN: 400, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(99)
		spec := nn.ModelSpec{Kind: nn.KindMLP, InputDim: train.FeatLen, Classes: train.NumClasses}
		m := nn.Build(spec, r)
		idx := identity(train.Len())
		for epoch := 0; epoch < 15; epoch++ {
			rng.New(uint64(epoch)).Shuffle(idx)
			for b := 0; b+32 <= len(idx); b += 32 {
				x, y := train.BatchInto(nil, nil, idx[b:b+32])
				logits := m.Forward(x, true)
				_, g := nn.SoftmaxCrossEntropy{}.LossInto(nil, logits, y)
				m.Backward(g)
				for _, p := range m.Params() {
					p.Data.AddScaled(-0.05, p.Grad)
				}
			}
		}
		x, y := test.BatchInto(nil, nil, identity(test.Len()))
		pred := nn.PredictInto(nil, m.Forward(x, false))
		correct := 0
		for i := range pred {
			if pred[i] == y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(pred))
	}
	easy := acc("mnist")
	hard := acc("cifar10")
	if easy <= hard+0.05 {
		t.Fatalf("difficulty ordering violated: mnist %v should beat cifar10 %v", easy, hard)
	}
	if easy < 0.7 {
		t.Fatalf("mnist-like should be easy, probe accuracy %v", easy)
	}
}

func TestCriteoNaturalSkew(t *testing.T) {
	train, _, err := Load("criteo", Config{TrainN: 3000, TestN: 500, Writers: 100, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Writers) != train.Len() {
		t.Fatal("criteo must attribute samples to users")
	}
	// Per-user positive rates must vary widely (natural label skew) and
	// user activity must be uneven (natural quantity skew).
	counts := map[int][2]int{}
	for i, u := range train.Writers {
		c := counts[u]
		c[train.Y[i]]++
		counts[u] = c
	}
	var rates []float64
	maxN, minN := 0, train.Len()
	for _, c := range counts {
		n := c[0] + c[1]
		if n >= 5 {
			rates = append(rates, float64(c[1])/float64(n))
		}
		if n > maxN {
			maxN = n
		}
		if n < minN {
			minN = n
		}
	}
	if len(rates) < 10 {
		t.Fatalf("too few active users: %d", len(rates))
	}
	lo, hi := 1.0, 0.0
	for _, r := range rates {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo < 0.3 {
		t.Fatalf("per-user positive rates too uniform: [%v, %v]", lo, hi)
	}
	if maxN < 4*minN && maxN < 30 {
		t.Fatalf("user activity too uniform: min %d max %d", minN, maxN)
	}
}
