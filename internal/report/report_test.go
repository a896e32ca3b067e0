package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Demo") {
		t.Fatalf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Fatalf("missing headers: %q", lines[1])
	}
	// Columns must align: "value" column starts at the same offset in all
	// data rows.
	off1 := strings.Index(lines[3], "1")
	off2 := strings.Index(lines[4], "22222")
	if off1 != off2 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestAddRowPanicsOnArity(t *testing.T) {
	tb := NewTable("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline runes: %q", s)
	}
	rs := []rune(s)
	if rs[0] != '▁' || rs[2] != '█' {
		t.Fatalf("sparkline extremes: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty string")
	}
	// Negative sentinels (unevaluated rounds) are skipped.
	s2 := Sparkline([]float64{-1, 0.2, -1, 0.8})
	if len([]rune(s2)) != 2 {
		t.Fatalf("sentinels not skipped: %q", s2)
	}
	// Constant series should not divide by zero.
	s3 := Sparkline([]float64{0.5, 0.5})
	if len([]rune(s3)) != 2 {
		t.Fatalf("constant series: %q", s3)
	}
}

func TestCurveLabel(t *testing.T) {
	c := Curve("FedAvg", []float64{0.3, 0.6})
	if !strings.Contains(c, "FedAvg") || !strings.Contains(c, "0.300") || !strings.Contains(c, "0.600") {
		t.Fatalf("curve: %q", c)
	}
	if !strings.Contains(Curve("X", nil), "no evaluations") {
		t.Fatal("empty curve should say so")
	}
}

func TestPercentAndBytes(t *testing.T) {
	if Percent(0.612) != "61.2%" {
		t.Fatalf("percent: %q", Percent(0.612))
	}
	if Bytes(2.73*(1<<20)) != "2.73MB" {
		t.Fatalf("mb: %q", Bytes(2.73*(1<<20)))
	}
	if Bytes(2048) != "2.00KB" {
		t.Fatalf("kb: %q", Bytes(2048))
	}
	if Bytes(12) != "12B" {
		t.Fatalf("b: %q", Bytes(12))
	}
}
