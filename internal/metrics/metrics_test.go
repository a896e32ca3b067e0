package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0.5, 0.7, 0.6})
	if math.Abs(s.Mean-0.6) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
	want := math.Sqrt(((0.1 * 0.1) + (0.1 * 0.1)) / 3)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v want %v", s.Std, want)
	}
	if s.N != 3 {
		t.Fatalf("n %d", s.N)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.Mean != 0 || s.Std != 0 || s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	if s := Summarize([]float64{0.9}); s.Mean != 0.9 || s.Std != 0 {
		t.Fatalf("single: %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Mean: 0.970, Std: 0.004}
	if got := s.String(); got != "97.0%±0.4%" {
		t.Fatalf("format: %q", got)
	}
}

func TestSummarizeMatchesAccuracyProperty(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v) / 255
		}
		s := Summarize(vals)
		// Mean within [min, max]; std non-negative.
		mn, mx := vals[0], vals[0]
		for _, v := range vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return s.Mean >= mn-1e-12 && s.Mean <= mx+1e-12 && s.Std >= 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
