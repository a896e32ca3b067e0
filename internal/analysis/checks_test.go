package analysis

import "testing"

// Each fixture tree under testdata/<check>/src locks the analyzer's
// positive findings, its clean shapes, and at least one //lint:allow
// suppression case. runFixture matches strictly in both directions, so
// flipping either a want comment or the analyzer's behaviour fails.

func TestCodecCheckFixture(t *testing.T) {
	runFixture(t, CodecCheck, "codeccheck", "simnet", "le")
}

func TestPoolCheckFixture(t *testing.T) {
	runFixture(t, PoolCheck, "poolcheck", "consumer")
}

func TestDeterCheckFixture(t *testing.T) {
	runFixture(t, DeterCheck, "detercheck", "fl", "simnet")
}

func TestLeakCheckFixture(t *testing.T) {
	runFixture(t, LeakCheck, "leakcheck", "simnet")
}

// TestSuppressionRequiresReason pins the policy that a bare
// //lint:allow with no reason does not suppress: the diagnostic
// survives, annotated.
func TestSuppressionRequiresReason(t *testing.T) {
	d := Diagnostic{Check: "detercheck"}
	d.Pos.Line = 10
	if _, ok := matchSuppression([]suppression{{line: 9, check: "detercheck"}}, d); !ok {
		t.Fatal("line-above suppression did not match")
	}
	if _, ok := matchSuppression([]suppression{{line: 10, check: "detercheck"}}, d); !ok {
		t.Fatal("same-line suppression did not match")
	}
	if _, ok := matchSuppression([]suppression{{line: 8, check: "detercheck"}}, d); ok {
		t.Fatal("distant suppression matched")
	}
	if _, ok := matchSuppression([]suppression{{line: 10, check: "poolcheck"}}, d); ok {
		t.Fatal("wrong-check suppression matched")
	}
}
