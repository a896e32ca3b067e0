package fl

import (
	"testing"
	"time"
)

// Test files are exempt: assertion order does not reach a fold.
func TestMapRangeAllowedInTests(t *testing.T) {
	m := map[int]float64{1: 1, 2: 2}
	for k, v := range m {
		if float64(k) != v {
			t.Fatal(k, v)
		}
	}
}

// Test files are exempt from the timer rule too: a test may wait.
func TestSleepAllowedInTests(t *testing.T) {
	time.Sleep(time.Millisecond)
}
