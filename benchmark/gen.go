package main

import (
	"fmt"
	"math"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// inputs is everything the program under test receives for one workload:
// the model spec, the per-party shards and the held-out test set.
type inputs struct {
	spec   nn.ModelSpec
	train  *data.Dataset
	test   *data.Dataset
	locals []*data.Dataset
}

// The task is fixed and the seed deals it: every seed trains on the same
// rows and is scored on the same test set, but which rows a party holds is
// the seed's draw. The partition's own draw (how many rows of each class a
// party gets) is frozen, so a round does the same amount of work whatever
// the seed and the timing metrics of two seeds are comparable within their
// bounds; what the seed moves is the learning curve.
const (
	taskSeed      = 1  // data.Load's own default seed
	partitionSeed = 18 // fedcli.Build's seed+17 at its default seed
)

const (
	wideDim        = 8192
	wideRowsPerPty = 12
	wideTestRows   = 500
	// wideSignal is the class-mean offset along the teacher direction in
	// units of the per-feature noise. A plain sign(w·x) teacher over iid
	// features cannot be learned from a few hundred rows in 8192 dimensions (test
	// accuracy tops out near 0.56, inside the 500-row test set's own
	// noise), which would leave the to-target metrics undefined; shifting
	// the class means along w keeps the labels a function of sign(w·x)
	// while giving the curve somewhere to climb.
	wideSignal   = 20.0
	wideFlipRate = 0.10
	// wideJitter is the seeded measurement noise, in the same units.
	wideJitter = 0.1
)

// generate builds a workload's inputs from the seed. Spans for the two
// timed layers (data, partition) are recorded under parent.
func generate(w *workload, s *fedcli.Shared, seed uint64, tr *tracer, parent *span) (*inputs, error) {
	in := &inputs{}
	sp := tr.begin("data.load", parent)
	switch w.Task {
	case "cifar10":
		spec, err := data.Model("cifar10")
		if err != nil {
			return nil, err
		}
		in.spec = spec
		if in.train, in.test, err = data.Load("cifar10", data.Config{Seed: taskSeed}); err != nil {
			return nil, err
		}
	case "wide":
		in.spec = nn.ModelSpec{Kind: nn.KindMLP, InputDim: wideDim, Classes: 2}
		r := rng.New(taskSeed)
		teacher := wideTeacher(r.Split())
		in.train = wideRows("wide-train", teacher, wideRowsPerPty*s.Parties, r.Split())
		in.test = wideRows("wide-test", teacher, wideTestRows, r.Split())
		flipLabels(in.train, r.Split())
		flipLabels(in.test, r.Split())
		// With one local step per party FedAvg is full-batch descent and
		// the deal alone would change nothing, so on this task the seed
		// also draws measurement noise on the training features.
		in.train = data.AddGaussianNoise(in.train, wideJitter, rng.New(seed).Split())
	default:
		return nil, fmt.Errorf("benchmark: unknown task %q", w.Task)
	}
	in.train = redeal(in.train, rng.New(seed))
	in.spec.DType = w.DType
	sp.end()

	sp = tr.begin("partition.split", parent)
	strat := partition.Strategy{Kind: partition.Kind(s.Partition), Beta: s.Beta}
	_, locals, err := strat.Split(in.train, s.Parties, rng.New(partitionSeed))
	sp.end()
	if err != nil {
		return nil, err
	}
	in.locals = locals
	return in, nil
}

// redeal permutes the rows within each class: row i keeps its label and
// gets the features of another row of that label. A partition that
// assigns rows by position and label then hands every party the same
// class counts and different rows.
func redeal(d *data.Dataset, r *rng.RNG) *data.Dataset {
	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	idx := make([]int, d.Len())
	for _, rows := range byClass {
		from := append([]int(nil), rows...)
		r.Shuffle(from)
		for j, i := range rows {
			idx[i] = from[j]
		}
	}
	return d.Subset(idx)
}

// wideTeacher draws the unit-norm Gaussian direction the wide task is
// labelled by.
func wideTeacher(r *rng.RNG) []float64 {
	w := make([]float64, wideDim)
	var norm float64
	for i := range w {
		w[i] = r.Normal()
		norm += w[i] * w[i]
	}
	norm = math.Sqrt(norm)
	for i := range w {
		w[i] /= norm
	}
	return w
}

// wideRows draws n rows of the wide tabular task, cleanly labelled:
// classes alternate, and features are iid N(0,1) plus the class mean
// ±wideSignal along the teacher.
func wideRows(name string, teacher []float64, n int, r *rng.RNG) *data.Dataset {
	d := &data.Dataset{
		Name:        name,
		X:           make([]float64, n*wideDim),
		Y:           make([]int, n),
		FeatLen:     wideDim,
		SampleShape: []int{wideDim},
		NumClasses:  2,
	}
	for i := 0; i < n; i++ {
		y := i % 2
		shift := wideSignal * float64(2*y-1)
		row := d.X[i*wideDim : (i+1)*wideDim]
		for j := range row {
			row[j] = r.Normal() + shift*teacher[j]
		}
		d.Y[i] = y
	}
	return d
}

// flipLabels mislabels a wideFlipRate share of d's rows, the same number
// in each class so the balance survives.
func flipLabels(d *data.Dataset, r *rng.RNG) {
	perClass := int(wideFlipRate * float64(d.Len()) / 2)
	flipped := [2]int{}
	for _, i := range r.Perm(d.Len()) {
		if y := d.Y[i] ^ 1; flipped[y] < perClass { // y is the label it gets
			d.Y[i] = y
			flipped[y]++
		}
	}
}
