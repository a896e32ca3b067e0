// Package metrics summarizes repeated trials the way NIID-Bench reports
// them: mean ± standard deviation (the format of the paper's Table III).
package metrics

import (
	"fmt"
	"math"
)

// Summary holds the mean and sample standard deviation of repeated trials.
type Summary struct {
	Mean, Std float64
	N         int
}

// Summarize computes mean and (population) standard deviation, matching
// the paper's "mean accuracy and standard derivation" over three trials.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if len(values) == 0 {
		return s
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	s.Mean = sum / float64(len(values))
	var sq float64
	for _, v := range values {
		d := v - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(values)))
	return s
}

// String renders the summary in the paper's "97.0% ± 0.4%" format.
func (s Summary) String() string {
	return fmt.Sprintf("%.1f%%±%.1f%%", s.Mean*100, s.Std*100)
}
