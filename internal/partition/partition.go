// Package partition implements NIID-Bench's six non-IID data partitioning
// strategies — the paper's primary contribution — plus the homogeneous
// (IID) baseline and the mixed-skew compositions of Section V-G:
//
//   - Label distribution skew, quantity-based (#C = k): each party holds
//     samples of exactly k classes.
//   - Label distribution skew, distribution-based (p_k ~ Dir(beta)): each
//     class's samples are split by a Dirichlet draw.
//   - Feature distribution skew, noise-based (x^ ~ Gau(sigma)): IID split,
//     then party i's features receive Gaussian noise of level sigma*i/N.
//   - Feature distribution skew, synthetic: FCUBE's symmetric-octant
//     allocation.
//   - Feature distribution skew, real-world: split by writer (FEMNIST).
//   - Quantity skew (q ~ Dir(beta)): party sizes follow a Dirichlet draw
//     over an otherwise IID split.
//
// A Partition assigns every training-sample index to exactly one party.
// Strategies that transform features (noise-based skew) are applied when
// materializing party datasets, not here, so a Partition alone is always a
// pure index assignment that can be audited and reported.
package partition

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/rng"
)

// Partition maps each party to the indices of its local samples.
type Partition [][]int

// IID splits n samples uniformly at random into parties of (nearly) equal
// size — the paper's homogeneous baseline.
func IID(n, parties int, r *rng.RNG) Partition {
	if parties <= 0 || n < parties {
		panic(fmt.Sprintf("partition: cannot split %d samples into %d parties", n, parties))
	}
	perm := r.Perm(n)
	out := make(Partition, parties)
	for i, idx := range perm {
		p := i % parties
		out[p] = append(out[p], idx)
	}
	return out
}

// QuantityLabel implements quantity-based label imbalance (#C = k): each
// party is assigned k distinct class IDs, then each class's samples are
// divided randomly and equally among the parties owning that class.
// Assignment retries until every class is owned by at least one party so
// no samples are dropped; k must be in [1, classes].
func QuantityLabel(labels []int, classes, parties, k int, r *rng.RNG) Partition {
	if k < 1 || k > classes {
		panic(fmt.Sprintf("partition: #C=%d outside [1,%d]", k, classes))
	}
	// Assign k classes to each party. To guarantee coverage (the paper's
	// division of "samples of each label into the parties which own the
	// label" requires every label to be owned), deal classes round-robin
	// from a shuffled deck first, then top up randomly.
	owners := make([][]int, classes) // class -> owning parties
	for attempt := 0; ; attempt++ {
		for c := range owners {
			owners[c] = owners[c][:0]
		}
		if parties*k >= classes {
			deck := r.Perm(classes)
			pos := 0
			partyClasses := make([][]int, parties)
			for p := 0; p < parties; p++ {
				chosen := map[int]bool{}
				for len(partyClasses[p]) < k {
					var c int
					if pos < len(deck) {
						c = deck[pos]
						pos++
					} else {
						c = r.Intn(classes)
					}
					if chosen[c] {
						continue
					}
					chosen[c] = true
					partyClasses[p] = append(partyClasses[p], c)
				}
			}
			for p, cs := range partyClasses {
				for _, c := range cs {
					owners[c] = append(owners[c], p)
				}
			}
		} else {
			// Fewer total slots than classes: not all classes can be owned;
			// assign randomly (some samples are unavoidably dropped).
			for p := 0; p < parties; p++ {
				for _, c := range r.SampleWithoutReplacement(classes, k) {
					owners[c] = append(owners[c], p)
				}
			}
		}
		covered := parties*k < classes // in the degenerate case accept as-is
		if !covered {
			covered = true
			for _, os := range owners {
				if len(os) == 0 {
					covered = false
					break
				}
			}
		}
		if covered || attempt > 100 {
			break
		}
	}

	// Split each class's samples equally among its owners.
	byClass := make([][]int, classes)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	out := make(Partition, parties)
	for c, idx := range byClass {
		os := owners[c]
		if len(os) == 0 {
			continue // degenerate case: class unowned, samples dropped
		}
		shuffled := append([]int{}, idx...)
		r.Shuffle(shuffled)
		for j, i := range shuffled {
			out[os[j%len(os)]] = append(out[os[j%len(os)]], i)
		}
	}
	return out
}

// DirichletLabel implements distribution-based label imbalance
// (p_k ~ Dir(beta)): for each class k a Dirichlet draw p_k decides what
// proportion of that class's samples each party receives. Smaller beta is
// more skewed. Following the reference implementation, the draw is
// rejected until every party has at least minSize samples so training
// never sees an empty party.
func DirichletLabel(labels []int, classes, parties int, beta float64, r *rng.RNG) Partition {
	const minSize = 2
	byClass := make([][]int, classes)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	for attempt := 0; ; attempt++ {
		out := make(Partition, parties)
		for _, idx := range byClass {
			p := r.Dirichlet(parties, beta)
			shuffled := append([]int{}, idx...)
			r.Shuffle(shuffled)
			// Convert proportions to contiguous slice boundaries.
			start := 0
			for pi := 0; pi < parties; pi++ {
				count := int(p[pi]*float64(len(shuffled)) + 0.5)
				if pi == parties-1 {
					count = len(shuffled) - start
				}
				if start+count > len(shuffled) {
					count = len(shuffled) - start
				}
				out[pi] = append(out[pi], shuffled[start:start+count]...)
				start += count
			}
		}
		ok := true
		for _, idx := range out {
			if len(idx) < minSize {
				ok = false
				break
			}
		}
		if ok || attempt > 200 {
			return out
		}
	}
}

// QuantitySkew implements q ~ Dir(beta): the data distribution stays IID
// but party sizes follow a Dirichlet draw. The draw is rejected until
// every party has at least minSize samples.
func QuantitySkew(n, parties int, beta float64, r *rng.RNG) Partition {
	const minSize = 2
	for attempt := 0; ; attempt++ {
		q := r.Dirichlet(parties, beta)
		perm := r.Perm(n)
		out := make(Partition, parties)
		start := 0
		for pi := 0; pi < parties; pi++ {
			count := int(q[pi]*float64(n) + 0.5)
			if pi == parties-1 {
				count = n - start
			}
			if start+count > n {
				count = n - start
			}
			out[pi] = append(out[pi], perm[start:start+count]...)
			start += count
		}
		ok := true
		for _, idx := range out {
			if len(idx) < minSize {
				ok = false
				break
			}
		}
		if ok || attempt > 200 {
			return out
		}
	}
}

// ByWriter implements real-world feature skew: writers (and all their
// samples) are divided randomly and equally among the parties, as the
// paper does for FEMNIST.
func ByWriter(writers []int, parties int, r *rng.RNG) Partition {
	n := numWriters(writers)
	if n == 0 {
		panic("partition: ByWriter requires writer annotations")
	}
	if n < parties {
		panic(fmt.Sprintf("partition: %d writers for %d parties", n, parties))
	}
	writerParty := make([]int, n)
	perm := r.Perm(n)
	for i, w := range perm {
		writerParty[w] = i % parties
	}
	out := make(Partition, parties)
	for i, w := range writers {
		p := writerParty[w]
		out[p] = append(out[p], i)
	}
	return out
}

// numWriters is one past the largest writer ID; 0 without annotations.
func numWriters(writers []int) int {
	n := 0
	for _, w := range writers {
		if w >= n {
			n = w + 1
		}
	}
	return n
}

// FCube implements the synthetic feature-skew partition: the 8 octants of
// the cube are paired symmetrically about the origin and each of the 4
// parties receives one pair. Requires exactly 4 parties.
func FCube(ds *data.Dataset, parties int) Partition {
	if parties != 4 {
		panic(fmt.Sprintf("partition: FCUBE is defined for 4 parties, got %d", parties))
	}
	// Octants o and 7-o (bitwise complement) are symmetric about the
	// origin. Pair them deterministically: party p gets octants p and 7-p.
	out := make(Partition, 4)
	for i := 0; i < ds.Len(); i++ {
		o := data.FCubeOctant(ds.Sample(i))
		p := o
		if p > 3 {
			p = 7 - p
		}
		out[p] = append(out[p], i)
	}
	return out
}
