package fl

import "fmt"

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
		if err := feedChunked(s, j, u, s.StreamLen()); err != nil {
			s.AbortRound()
			return err
		}
	}
	return s.FinishRound()
}

// aggregateBatched is the original non-streaming aggregation, retained
// verbatim as the test oracle for the streaming-equivalence tests: it
// buffers the whole round and folds it in one pass, and shares only the
// server-optimizer step (applyUpdate) with the code under test.
func (s *Server) aggregateBatched(updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("fl: no updates to aggregate")
	}
	totalN := 0
	for _, u := range updates {
		if len(u.Delta) != len(s.state) {
			return fmt.Errorf("fl: update length %d, state %d", len(u.Delta), len(s.state))
		}
		if u.Tau <= 0 {
			return fmt.Errorf("fl: update with non-positive tau %d", u.Tau)
		}
		totalN += u.N
	}
	weight := func(u Update) float64 {
		if s.cfg.Unweighted {
			return 1 / float64(len(updates))
		}
		return float64(u.N) / float64(totalN)
	}

	agg := make([]float64, len(s.state))
	switch s.cfg.Algorithm {
	case FedNova:
		var tauEff float64
		for _, u := range updates {
			tauEff += weight(u) * float64(u.Tau)
		}
		for _, u := range updates {
			w := weight(u) * tauEff / float64(u.Tau)
			for i, d := range u.Delta {
				agg[i] += w * d
			}
		}
	case FedDyn:
		// FedDyn averages participating models unweighted (Acar et al.).
		for _, u := range updates {
			w := 1 / float64(len(updates))
			for i, d := range u.Delta {
				agg[i] += w * d
			}
		}
	default:
		for _, u := range updates {
			w := weight(u)
			for i, d := range u.Delta {
				agg[i] += w * d
			}
		}
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
