package data

import (
	"math"
	"slices"

	"github.com/niid-bench/niidbench/internal/rng"
)

// tabularFamily parameterizes a synthetic tabular binary-classification
// dataset built from a random "teacher": features are drawn from a
// family-specific distribution and labelled by a noisy teacher function.
// The three families mirror the character of the paper's tabular sets:
// adult (binary-ish features, imbalanced classes), rcv1 (high-dimensional
// sparse) and covtype (dense mid-dimensional, nonlinear decision surface).
type tabularFamily struct {
	name     string
	features int
	// density is the probability a feature is non-zero (sparse families).
	density float64
	// binary makes non-zero features take value 1 (one-hot-ish encodings).
	binary bool
	// posRate is the target fraction of positive labels.
	posRate float64
	// labelNoise flips this fraction of labels, bounding attainable accuracy.
	labelNoise float64
	// nonlinear mixes in pairwise feature interactions in the teacher.
	nonlinear float64
}

var (
	adultFamily = tabularFamily{
		name: "adult", features: 123, density: 0.12, binary: true,
		posRate: 0.24, labelNoise: 0.10, nonlinear: 0,
	}
	rcv1Family = tabularFamily{
		name: "rcv1", features: 600, density: 0.04, binary: false,
		posRate: 0.50, labelNoise: 0.02, nonlinear: 0,
	}
	covtypeFamily = tabularFamily{
		name: "covtype", features: 54, density: 1.0, binary: false,
		posRate: 0.49, labelNoise: 0.08, nonlinear: 0.8,
	}
)

// generate builds train and test splits that share one teacher.
func (f tabularFamily) generate(trainN, testN int, seed uint64) (train, test *Dataset) {
	r := rng.New(seed)
	// Teacher weights. Sparse families get a dense teacher so that every
	// active feature is informative.
	w := make([]float64, f.features)
	for i := range w {
		w[i] = r.Normal()
	}
	// Interaction pairs for the nonlinear component.
	type pair struct{ a, b int }
	var pairs []pair
	var pairW []float64
	if f.nonlinear > 0 {
		for k := 0; k < f.features; k++ {
			pairs = append(pairs, pair{r.Intn(f.features), r.Intn(f.features)})
			pairW = append(pairW, r.Normal())
		}
	}

	score := func(row []float64) float64 {
		var s float64
		for i, v := range row {
			if v != 0 {
				s += w[i] * v
			}
		}
		if f.nonlinear > 0 {
			var ns float64
			for k, p := range pairs {
				ns += pairW[k] * row[p.a] * row[p.b]
			}
			s = (1-f.nonlinear)*s + f.nonlinear*ns
		}
		return s
	}

	// Calibrate the decision threshold on a pilot sample so the positive
	// rate matches posRate.
	pilotR := r.Split()
	pilot := make([]float64, 2000)
	rowBuf := make([]float64, f.features)
	for i := range pilot {
		f.sampleRow(rowBuf, pilotR)
		pilot[i] = score(rowBuf)
	}
	threshold := quantile(pilot, 1-f.posRate)

	build := func(n int, sr *rng.RNG) *Dataset {
		d := &Dataset{
			Name:        f.name,
			X:           make([]float64, n*f.features),
			Y:           make([]int, n),
			FeatLen:     f.features,
			SampleShape: []int{f.features},
			NumClasses:  2,
		}
		for i := 0; i < n; i++ {
			row := d.X[i*f.features : (i+1)*f.features]
			f.sampleRow(row, sr)
			y := 0
			if score(row) > threshold {
				y = 1
			}
			if sr.Float64() < f.labelNoise {
				y = 1 - y
			}
			d.Y[i] = y
		}
		return d
	}
	train = build(trainN, r.Split())
	test = build(testN, r.Split())
	Standardize(train, test)
	return train, test
}

func (f tabularFamily) sampleRow(row []float64, r *rng.RNG) {
	for i := range row {
		if f.density < 1 && r.Float64() >= f.density {
			row[i] = 0
			continue
		}
		if f.binary {
			row[i] = 1
		} else {
			row[i] = r.Normal()
		}
	}
}

// quantile returns the q-quantile (0..1) of values: the order statistic at
// index floor(q*(n-1)) of a sorted copy.
func quantile(values []float64, q float64) float64 {
	v := slices.Clone(values)
	slices.Sort(v)
	idx := int(q * float64(len(v)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(v) {
		idx = len(v) - 1
	}
	return v[idx]
}

// FCUBE is generated exactly as the paper describes: points uniform in the
// cube [-1,1]^3, labelled by the plane x1 = 0 (label 0 above, 1 below in
// our convention: label = 1 if x1 < 0). The cube splits into 8 octants by
// the coordinate planes; each of the 4 parties receives the two octants
// symmetric about the origin, giving feature skew with balanced labels.
func generateFCube(trainN, testN int, seed uint64) (train, test *Dataset) {
	r := rng.New(seed)
	build := func(n int, sr *rng.RNG) *Dataset {
		d := &Dataset{
			Name:        "fcube",
			X:           make([]float64, n*3),
			Y:           make([]int, n),
			FeatLen:     3,
			SampleShape: []int{3},
			NumClasses:  2,
		}
		for i := 0; i < n; i++ {
			row := d.X[i*3 : (i+1)*3]
			for j := range row {
				row[j] = 2*sr.Float64() - 1
			}
			if row[0] < 0 {
				d.Y[i] = 1
			}
		}
		return d
	}
	train = build(trainN, r.Split())
	test = build(testN, r.Split())
	// No standardization: the octant geometry is the partition key.
	return train, test
}

// FCubeOctant returns the octant index (0..7) of an FCUBE sample, using
// the sign bits of its three coordinates.
func FCubeOctant(row []float64) int {
	o := 0
	for j := 0; j < 3; j++ {
		if row[j] >= 0 {
			o |= 1 << j
		}
	}
	return o
}

// logistic is the sigmoid; the Criteo generator draws its click labels
// through it.
func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
