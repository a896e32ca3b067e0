package fl

import (
	"fmt"
	"math"
	"testing"
)

// bitDiff counts the elements whose bits differ between a and b (a length
// mismatch counts every element) and returns the first such index.
func bitDiff(a, b []float64) (n, first int) {
	if len(a) != len(b) {
		return max(len(a), len(b)), 0
	}
	first = -1
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	return n, first
}

// requireSameBits fails t unless got and want are bitwise equal.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	n, i := bitDiff(got, want)
	switch {
	case n == 0:
	case len(got) != len(want):
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	default:
		t.Fatalf("%s: %d of %d elements differ; first [%d]: %v vs %v", what, n, len(want), i, got[i], want[i])
	}
}

// feedChunked pushes u into s through the one ingest — AddUpdateChunk
// frames of the given size closed by FinishUpdate: the delta followed by
// SCAFFOLD's control delta as one flattened stream, chunk boundaries
// anywhere (including across the delta/control seam).
func feedChunked(s *Server, idx int, u Update, chunk int) error {
	stream := append(append([]float64{}, u.Delta...), u.DeltaC...)
	for off := 0; off < len(stream); off += chunk {
		end := min(off+chunk, len(stream))
		if err := s.AddUpdateChunk(idx, off, stream[off:end]); err != nil {
			return err
		}
	}
	return s.FinishUpdate(Update{N: u.N, Tau: u.Tau, TrainLoss: u.TrainLoss, Kept: u.Kept})
}

// aggregate folds a complete round of whole updates through the ingest,
// one frame per update; a failed round is aborted so the server can open
// another.
func aggregate(s *Server, updates []Update) error {
	metas := make([]UpdateMeta, len(updates))
	for j, u := range updates {
		metas[j] = UpdateMeta{N: u.N, Tau: u.Tau}
	}
	if err := s.BeginRound(metas); err != nil {
		return err
	}
	for j, u := range updates {
		if err := feedChunked(s, j, u, s.streamLen()); err != nil {
			s.AbortRound()
			return err
		}
	}
	return s.FinishRound()
}

// aggregateBatched is the non-streaming aggregation, the test oracle for
// the streaming-equivalence tests: it buffers the whole round, sums its
// base weights (n_i, or 1 unweighted and under FedDyn) up front, folds the
// deltas by them in one pass and divides by the sum once — FedNova folding
// w_i/tau_i and scaling by tau_eff/sum = sum(w_i tau_i)/sum^2. It shares
// only the server-optimizer step (applyUpdate) with the code under test.
func (s *Server) aggregateBatched(updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("fl: no updates to aggregate")
	}
	weights := make([]float64, len(updates))
	var sum, tauSum float64
	for j, u := range updates {
		if len(u.Delta) != len(s.state) {
			return fmt.Errorf("fl: update length %d, state %d", len(u.Delta), len(s.state))
		}
		if u.Tau <= 0 {
			return fmt.Errorf("fl: update with non-positive tau %d", u.Tau)
		}
		weights[j] = float64(u.N)
		if s.cfg.Unweighted || s.cfg.Algorithm == FedDyn {
			weights[j] = 1
		}
		sum += weights[j]
		tauSum += weights[j] * float64(u.Tau)
	}
	scale := 1 / sum
	if s.cfg.Algorithm == FedNova {
		scale = tauSum / (sum * sum)
		for j, u := range updates {
			weights[j] /= float64(u.Tau)
		}
	}

	agg := make([]float64, len(s.state))
	for j, u := range updates {
		for i, d := range u.Delta {
			agg[i] += weights[j] * d
		}
	}
	for i := range agg {
		agg[i] *= scale
	}
	s.applyUpdate(agg)

	if s.cfg.Algorithm == FedDyn {
		// h <- h + (alpha/N) * sum_i Delta_i, then w <- mean(w_i) - h/alpha.
		for _, u := range updates {
			for i := 0; i < s.paramLen; i++ {
				s.dynH[i] += s.cfg.Alpha * u.Delta[i] / float64(s.numParties)
			}
		}
		for i := 0; i < s.paramLen; i++ {
			s.state[i] -= s.dynH[i] / s.cfg.Alpha
		}
	}

	if s.cfg.Algorithm == Scaffold {
		for _, u := range updates {
			if u.DeltaC == nil {
				return fmt.Errorf("fl: SCAFFOLD update missing DeltaC")
			}
			for i, d := range u.DeltaC {
				s.control[i] += d / float64(s.numParties)
			}
		}
	}
	return nil
}
