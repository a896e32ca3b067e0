package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
)

func digest(d *data.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range d.X {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, y := range d.Y {
		h.Write([]byte{byte(y)})
	}
	return h.Sum64()
}

// The generator is a function of the seed, and the seed changes which rows
// a party holds but never how many, nor the test set.
func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"cnn-f64-sync", "wide-f64-sync"} {
		w := findWorkload(name)
		gen := func(seed uint64) *inputs {
			_, shared, err := buildConfig(w, w.Rounds)
			if err != nil {
				t.Fatal(err)
			}
			in, err := generate(w, shared, seed, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, again, b := gen(1), gen(1), gen(2)
		if digest(a.train) != digest(again.train) {
			t.Errorf("%s: seed 1 generated two different training sets", name)
		}
		if digest(a.train) == digest(b.train) {
			t.Errorf("%s: seeds 1 and 2 generated the same training set", name)
		}
		if digest(a.test) != digest(b.test) {
			t.Errorf("%s: the test set depends on the seed; it is the fixed yardstick", name)
		}
		for i := range a.locals {
			if digest(a.locals[i]) != digest(again.locals[i]) {
				t.Errorf("%s: seed 1 gave party %d two different shards", name, i)
			}
			if a.locals[i].Len() != b.locals[i].Len() {
				t.Errorf("%s: party %d holds %d rows at seed 1 and %d at seed 2", name, i, a.locals[i].Len(), b.locals[i].Len())
			}
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := spread(xs); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// BENCHMARK.json and the tables in workloads.go declare the same things.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128", len(workloads), len(endToEnd), len(perLayer))
	}
	if len(decl.Workloads) != len(workloads) || len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d/%d/%d workloads/end-to-end/per-layer, workloads.go %d/%d/%d",
			len(decl.Workloads), len(decl.EndToEnd), len(decl.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		use(w.Name)
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q (or their whys differ)", i, d.Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		use(m.Name)
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, workloads.go %+v", i, d, m)
		}
		if m.Bound < 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) {
			t.Errorf("%s: bound %v or unit %q outside the contract", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		use(m.Name)
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, workloads.go %+v", i, d, m)
		}
		if !unit.MatchString(m.Unit) || m.Moves == "" {
			t.Errorf("%s: unit %q outside the contract, or no end-to-end metric named as the one it moves", m.Name, m.Unit)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metric{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	exact := metric{Name: "bytes_per_round", Better: "lower", Bound: 0}
	for _, c := range []struct {
		m            metric
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.02, "unchanged"},
		{lower, 100, 111, 0.02, "worse"},
		{lower, 100, 89, 0.02, "better"},
		{lower, 100, 105, 0.15, "unresolved"},
		{lower, 100, 120, 0.15, "worse"},
		{higher, 10, 9.5, 0.02, "unchanged"},
		{higher, 10, 8.9, 0.02, "worse"},
		{higher, 10, 11.5, 0.02, "better"},
		{higher, 10, 10.2, 0.3, "unresolved"},
		{exact, 1000, 1000, 0, "unchanged"},
		{exact, 1000, 1001, 0, "worse"},
		{lower, 0, 0, 0, "unchanged"},
		{lower, 0, 5, 0, "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s: a=%v b=%v spread=%v: verdict %q, want %q", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

// The smoke mode goes through the same code as a full run: set-up,
// warm-up, passes over loopback TCP, checks, probes and the trace.
func TestSmokeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		workload string
		trace    int
	}{{"cnn-f32-sync", 0}, {"wide-int8-sync", 1}, {"wide-f64-async", 0}} {
		w := findWorkload(c.workload)
		r := measure(w, options{seed: 3, smoke: true, trace: c.trace, outDir: dir})
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d problems=%v", c.workload, c.trace, r.Correct, r.Attempted, r.Failed, r.problems)
		}
		line := r.wire(c.trace, false)
		want := declared(c.trace)
		if len(line.Metrics) != len(want) {
			t.Errorf("%s trace %d: %d metrics emitted, %d declared", c.workload, c.trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := line.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s trace %d: metric %s emitted as %+v (present %v)", c.workload, c.trace, m.Name, v, ok)
			}
		}
		if c.trace == 1 {
			checkTrace(t, dir+"/trace-"+c.workload+".json", c.workload)
		}
	}
}

// checkTrace loads a written Chrome trace and checks that every span but
// the root names a parent that exists and shares the workload id.
func checkTrace(t *testing.T, path, workload string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct {
				ID, Parent int
				Workload   string
			}
		}
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("%s does not load: %v", path, err)
	}
	ids, names := map[int]bool{}, map[string]int{}
	for _, e := range tr.TraceEvents {
		ids[e.Args.ID] = true
		names[e.Name]++
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args.Workload != workload {
			t.Errorf("span %q: phase %q, duration %v, workload %q", e.Name, e.Ph, e.Dur, e.Args.Workload)
		}
		if e.Name == "workload" {
			continue
		}
		if !ids[e.Args.Parent] {
			t.Errorf("span %q (id %d) names parent %d, which is not in the trace", e.Name, e.Args.ID, e.Args.Parent)
		}
	}
	for _, n := range []string{"workload", "setup", "data.load", "partition.split", "listen", "run", "accept-and-run", "party", "round", "probes", "fl.client.train", "simnet.wire"} {
		if names[n] == 0 {
			t.Errorf("no %q span in the trace", n)
		}
	}
}

// A party that errors out is counted as a failed operation; the run goes
// on with the others and is reported as not correct.
func TestFailingPartyIsCountedNotFatal(t *testing.T) {
	w := findWorkload("cnn-f32-sync")
	s, err := prepare(w, smokeRounds, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The server admits one party fewer than dial in: the last one's
	// hello is refused and its DialPartyOpts returns an error.
	s.shared.Parties--
	p := runPass(s, nil, nil)
	_, failed, problems := p.check(s, false)
	if failed != 1 || len(problems) != 1 {
		t.Errorf("failed=%d problems=%v, want exactly the refused party", failed, problems)
	}
	if p.res == nil || len(p.res.Curve) != smokeRounds {
		t.Errorf("the run did not complete with the remaining parties: %v", p.err)
	}
}

// A hung federation fails every operation it was asked to do, within the
// watchdog's timeout, instead of hanging the command.
func TestWatchdogFailsAllOperations(t *testing.T) {
	w := findWorkload("wide-f64-sync")
	hang := func(*workload, options) *result { select {} }
	start := time.Now()
	r := watched(50*time.Millisecond, w, options{smoke: true}, hang)
	if time.Since(start) > 5*time.Second {
		t.Error("the watchdog did not fire in time")
	}
	if want := 8 * smokeRounds; r.Correct || r.Attempted != want || r.Failed != want {
		t.Errorf("correct=%v attempted=%d failed=%d, want all %d operations failed", r.Correct, r.Attempted, r.Failed, want)
	}
	if len(r.wire(0, false).Metrics) != len(endToEnd) {
		t.Error("a watchdog result does not carry every declared metric")
	}
}
