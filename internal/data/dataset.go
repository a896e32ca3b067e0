// Package data provides the nine dataset families NIID-Bench evaluates on.
// The public image and tabular corpora the paper uses (MNIST, CIFAR-10,
// adult, rcv1, ...) are not available in this offline environment, so each
// family is generated synthetically with the properties the benchmark
// actually exercises: the class count, feature geometry, class balance and
// classification difficulty of the original (see DESIGN.md for the
// substitution rationale). FCUBE is generated exactly as the paper
// specifies it.
package data

import (
	"fmt"
	"math"

	"github.com/niid-bench/niidbench/internal/tensor"
)

// Dataset is an in-memory labelled dataset with flat row-major features.
type Dataset struct {
	Name string
	// X holds Len()*FeatLen feature values, sample-major.
	X []float64
	// Y holds one class label per sample.
	Y []int
	// FeatLen is the number of scalars per sample.
	FeatLen int
	// SampleShape describes one sample, e.g. [1 16 16] for a grayscale
	// image or [123] for a tabular row.
	SampleShape []int
	// NumClasses is the label cardinality.
	NumClasses int
	// Writers optionally assigns each sample to a writer (FEMNIST-like
	// datasets); empty otherwise.
	Writers []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Sample returns a view of sample i's features.
func (d *Dataset) Sample(i int) []float64 {
	return d.X[i*d.FeatLen : (i+1)*d.FeatLen]
}

// Validate checks internal consistency and returns a descriptive error on
// the first violation.
func (d *Dataset) Validate() error {
	if d.FeatLen <= 0 {
		return fmt.Errorf("data: %s has non-positive FeatLen %d", d.Name, d.FeatLen)
	}
	if len(d.X) != len(d.Y)*d.FeatLen {
		return fmt.Errorf("data: %s has %d feature values for %d samples of %d", d.Name, len(d.X), len(d.Y), d.FeatLen)
	}
	shapeLen := 1
	for _, s := range d.SampleShape {
		shapeLen *= s
	}
	if shapeLen != d.FeatLen {
		return fmt.Errorf("data: %s SampleShape %v does not match FeatLen %d", d.Name, d.SampleShape, d.FeatLen)
	}
	if len(d.Writers) != 0 && len(d.Writers) != len(d.Y) {
		return fmt.Errorf("data: %s has %d writers for %d samples", d.Name, len(d.Writers), len(d.Y))
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("data: %s sample %d label %d out of [0,%d)", d.Name, i, y, d.NumClasses)
		}
	}
	return nil
}

// Subset materializes the samples at the given indices into a new dataset.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := &Dataset{
		Name:        d.Name,
		X:           make([]float64, len(indices)*d.FeatLen),
		Y:           make([]int, len(indices)),
		FeatLen:     d.FeatLen,
		SampleShape: d.SampleShape,
		NumClasses:  d.NumClasses,
	}
	if len(d.Writers) > 0 {
		out.Writers = make([]int, len(indices))
	}
	for j, i := range indices {
		copy(out.X[j*d.FeatLen:(j+1)*d.FeatLen], d.Sample(i))
		out.Y[j] = d.Y[i]
		if len(d.Writers) > 0 {
			out.Writers[j] = d.Writers[i]
		}
	}
	return out
}

// BatchInto gathers the samples at the given indices into a
// (len(indices), FeatLen) tensor plus the matching labels, in caller-held
// scratch: x is grown in place via tensor.Ensure and labels is re-sliced
// when capacity allows, so a training loop that keeps the returned values
// across iterations batches without allocating. Both may be nil (nil x yields float64). A non-nil x
// keeps its dtype: a float32 scratch tensor receives the features
// narrowed, which is how float32 models draw batches from the float64
// dataset without a second copy.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, indices []int) (*tensor.Tensor, []int) {
	x = tensor.Ensure(x, len(indices), d.FeatLen)
	if cap(labels) < len(indices) {
		labels = make([]int, len(indices))
	}
	labels = labels[:len(indices)]
	if x.DType() == tensor.Float32 {
		xd := x.Data32()
		for j, i := range indices {
			row := xd[j*d.FeatLen : (j+1)*d.FeatLen]
			src := d.Sample(i)
			for c := range row {
				row[c] = float32(src[c])
			}
			labels[j] = d.Y[i]
		}
		return x, labels
	}
	xd := x.Data()
	for j, i := range indices {
		copy(xd[j*d.FeatLen:(j+1)*d.FeatLen], d.Sample(i))
		labels[j] = d.Y[i]
	}
	return x, labels
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// LabelDistribution returns the empirical class probabilities.
func (d *Dataset) LabelDistribution() []float64 {
	counts := d.ClassCounts()
	p := make([]float64, d.NumClasses)
	if d.Len() == 0 {
		return p
	}
	for c, n := range counts {
		p[c] = float64(n) / float64(d.Len())
	}
	return p
}

// Standardize shifts and scales features in place to zero mean and unit
// variance per feature, computing the statistics on d itself and applying
// the same transform to the others (the train/test convention). Constant
// features are left centred.
func Standardize(d *Dataset, others ...*Dataset) {
	n := d.Len()
	if n == 0 {
		return
	}
	mean := make([]float64, d.FeatLen)
	m2 := make([]float64, d.FeatLen)
	for i := 0; i < n; i++ {
		row := d.Sample(i)
		for j, v := range row {
			mean[j] += v
			m2[j] += v * v
		}
	}
	inv := 1 / float64(n)
	std := make([]float64, d.FeatLen)
	for j := range mean {
		mean[j] *= inv
		v := m2[j]*inv - mean[j]*mean[j]
		if v < 1e-12 {
			std[j] = 1
		} else {
			std[j] = math.Sqrt(v)
		}
	}
	apply := func(ds *Dataset) {
		for i := 0; i < ds.Len(); i++ {
			row := ds.Sample(i)
			for j := range row {
				row[j] = (row[j] - mean[j]) / std[j]
			}
		}
	}
	apply(d)
	for _, o := range others {
		apply(o)
	}
}
