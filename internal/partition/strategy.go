package partition

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/rng"
)

// Kind names a partitioning strategy.
type Kind string

const (
	// Homogeneous is the IID baseline.
	Homogeneous Kind = "iid"
	// LabelQuantity is quantity-based label imbalance (#C = k).
	LabelQuantity Kind = "label-quantity"
	// LabelDirichlet is distribution-based label imbalance (p_k ~ Dir(beta)).
	LabelDirichlet Kind = "label-dirichlet"
	// FeatureNoise is noise-based feature imbalance (x^ ~ Gau(sigma)).
	FeatureNoise Kind = "feature-noise"
	// FeatureSynthetic is the FCUBE octant allocation.
	FeatureSynthetic Kind = "feature-synthetic"
	// FeatureRealWorld splits by writer (FEMNIST).
	FeatureRealWorld Kind = "feature-realworld"
	// Quantity is quantity skew (q ~ Dir(beta)).
	Quantity Kind = "quantity"
)

// Strategy is a fully specified partitioning strategy. NoiseSigma may be
// combined with any index-level kind to create the paper's mixed-skew
// settings (Section V-G): e.g. LabelDirichlet+NoiseSigma is "label skew +
// feature skew".
type Strategy struct {
	Kind Kind
	// K is the classes-per-party for LabelQuantity.
	K int
	// Beta is the Dirichlet concentration for LabelDirichlet and Quantity.
	Beta float64
	// NoiseSigma, when positive, adds Gau(NoiseSigma*(i+1)/N) feature noise
	// to party i's local dataset after index assignment.
	NoiseSigma float64
}

// String renders the strategy in the paper's notation.
func (s Strategy) String() string {
	var base string
	switch s.Kind {
	case Homogeneous:
		base = "IID"
	case LabelQuantity:
		base = fmt.Sprintf("#C=%d", s.K)
	case LabelDirichlet:
		base = fmt.Sprintf("p_k~Dir(%g)", s.Beta)
	case FeatureNoise:
		return fmt.Sprintf("x~Gau(%g)", s.NoiseSigma)
	case FeatureSynthetic:
		base = "synthetic"
	case FeatureRealWorld:
		base = "real-world"
	case Quantity:
		base = fmt.Sprintf("q~Dir(%g)", s.Beta)
	default:
		base = string(s.Kind)
	}
	if s.NoiseSigma > 0 && s.Kind != FeatureNoise {
		return fmt.Sprintf("%s + Gau(%g)", base, s.NoiseSigma)
	}
	return base
}

// Parties returns how many parties the strategy runs with when the caller
// asks for requested: FCUBE's octant allocation is defined for exactly 4
// (the paper fixes it), every other kind takes what it is asked for.
func (s Strategy) Parties(requested int) int {
	if s.Kind == FeatureSynthetic {
		return 4
	}
	return requested
}

// Assign computes the index-level partition for the strategy. A strategy
// whose precondition the dataset or the party count cannot meet is an
// error here, so no caller-supplied value reaches the helpers' panics.
func (s Strategy) Assign(train *data.Dataset, parties int, r *rng.RNG) (Partition, error) {
	if parties < 1 || train.Len() < parties {
		return nil, fmt.Errorf("partition: cannot split %d samples into %d parties", train.Len(), parties)
	}
	switch s.Kind {
	case Homogeneous, FeatureNoise:
		// Noise-based feature skew starts from an equal random split.
		return IID(train.Len(), parties, r), nil
	case LabelQuantity:
		if s.K < 1 || s.K > train.NumClasses {
			return nil, fmt.Errorf("partition: %s requires K in [1,%d] on %s, got %d", s.Kind, train.NumClasses, train.Name, s.K)
		}
		return QuantityLabel(train.Y, train.NumClasses, parties, s.K, r), nil
	case LabelDirichlet:
		if s.Beta <= 0 {
			return nil, fmt.Errorf("partition: %s requires Beta > 0", s.Kind)
		}
		return DirichletLabel(train.Y, train.NumClasses, parties, s.Beta, r), nil
	case Quantity:
		if s.Beta <= 0 {
			return nil, fmt.Errorf("partition: %s requires Beta > 0", s.Kind)
		}
		return QuantitySkew(train.Len(), parties, s.Beta, r), nil
	case FeatureRealWorld:
		if n := numWriters(train.Writers); n < parties {
			return nil, fmt.Errorf("partition: %s splits by writer and needs at least one per party; %s has %d writers for %d parties", s.Kind, train.Name, n, parties)
		}
		return ByWriter(train.Writers, parties, r), nil
	case FeatureSynthetic:
		if parties != 4 || train.FeatLen < 3 {
			return nil, fmt.Errorf("partition: %s pairs the octants of 3 features over exactly 4 parties (see Strategy.Parties); got %d parties, %d features on %s", s.Kind, parties, train.FeatLen, train.Name)
		}
		return FCube(train, parties), nil
	default:
		return nil, fmt.Errorf("partition: unknown strategy kind %q", s.Kind)
	}
}

// Split assigns indices and materializes the per-party local datasets,
// applying the noise transform when the strategy calls for it.
func (s Strategy) Split(train *data.Dataset, parties int, r *rng.RNG) (Partition, []*data.Dataset, error) {
	part, err := s.Assign(train, parties, r)
	if err != nil {
		return nil, nil, err
	}
	local := make([]*data.Dataset, len(part))
	for i, idx := range part {
		ds := train.Subset(idx)
		if s.NoiseSigma > 0 {
			level := s.NoiseSigma * float64(i+1) / float64(len(part))
			ds = data.AddGaussianNoise(ds, level, r.Split())
		}
		local[i] = ds
	}
	return part, local, nil
}
