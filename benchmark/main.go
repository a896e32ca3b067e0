// Command benchmark is the end-to-end federation benchmark: a whole
// federation over loopback TCP per workload, ten end-to-end metrics from an
// untraced run, and per-layer probes plus a span trace from a traced one.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	detail   bool
	outDir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (default: run all, each in its own child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload generator; the program sees only what it generates")
	flag.Float64Var(&o.seconds, "seconds", 15, "time budget of the measured passes; a run always measures at least one whole pass")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a Chrome trace")
	flag.BoolVar(&o.smoke, "smoke", false, "3 rounds per pass and 3 calls per probe; accuracy checks off")
	flag.BoolVar(&o.detail, "detail", false, "add a detail object (passes, digest, spreads, problems) to the result line")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for results.json, traces and probe scratch files")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	// One process holds the server and all K parties. 1+K processes on a
	// two-core box would measure the scheduler, not the program.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if o.workload == "" {
		os.Exit(runAll(o))
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	// Three times the expected run, and inside the 180 s a run may take.
	timeout := min(time.Duration(3*(o.seconds+10)*float64(time.Second)), 170*time.Second)
	res := watched(timeout, w, o, measure)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED CHECK: %s\n", w.Name, p)
	}
	line, err := json.Marshal(res.wire(o.trace, o.detail))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Below: the detail object.
	Passes   int
	Rounds   int
	Digest   string
	Curve    []float64 // test accuracy per round of the first pass
	Spread   map[string]float64
	problems []string
}

// wireResult is the result line's JSON shape.
type wireResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Detail    *wireDetail      `json:"detail,omitempty"`
}

type wireDetail struct {
	Passes   int                `json:"passes"`
	Rounds   int                `json:"rounds"`
	Digest   string             `json:"digest,omitempty"`
	Curve    []float64          `json:"curve,omitempty"`
	Spread   map[string]float64 `json:"spread,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// wire shapes the result line: exactly the metrics the trace setting
// declares, each with its unit.
func (r *result) wire(trace int, detail bool) wireResult {
	out := wireResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range declared(trace) {
		out.Metrics[m.Name] = value{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	if detail {
		out.Detail = &wireDetail{Passes: r.Passes, Rounds: r.Rounds, Digest: r.Digest, Curve: r.Curve, Spread: r.Spread, Problems: r.problems}
	}
	return out
}

// declared returns the metrics a run with this trace setting reports.
func declared(trace int) []metric {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// watched runs fn under a watchdog. A federation that hangs fails every
// operation it was asked to do instead of hanging the command; the stuck
// goroutines die with the process.
func watched(timeout time.Duration, w *workload, o options, fn func(*workload, options) *result) *result {
	done := make(chan *result, 1)
	go func() { done <- fn(w, o) }()
	select {
	case r := <-done:
		return r
	case <-time.After(timeout):
		// wire reports a metric that was never measured as 0.
		r := &result{Attempted: 1}
		if cfg, shared, err := buildConfig(w, passRounds(w, o)); err == nil {
			r.Attempted = (&setup{cfg: cfg, shared: shared}).ops()
		}
		r.Failed = r.Attempted
		r.problems = []string{fmt.Sprintf("watchdog: no result after %v", timeout)}
		return r
	}
}

const (
	setupReps    = 5 // set-ups per run; the median is reported
	warmupRounds = 2
	smokeRounds  = 3
	probeCalls   = 30
)

// passRounds is the fixed round count of one measured pass.
func passRounds(w *workload, o options) int {
	switch {
	case o.smoke:
		return smokeRounds
	case o.trace == 1:
		// The traced run covers a quarter of the untraced one's rounds.
		return max(w.Rounds/4, smokeRounds)
	}
	return w.Rounds
}

// measure runs one workload once and reports the metrics its trace
// setting calls for.
func measure(w *workload, o options) *result {
	r := &result{Metrics: map[string]float64{}, Spread: map[string]float64{}}
	fail := func(format string, args ...any) *result {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		r.Attempted = max(r.Attempted, 1)
		r.Failed = r.Attempted
		return r
	}
	var tr *tracer
	var root *span
	if o.trace == 1 {
		tr = newTracer(w.Name)
		root = tr.begin("workload", nil)
	}
	r.Rounds = passRounds(w, o)

	var s *setup
	var setups []float64
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		var err error
		if s, err = prepare(w, r.Rounds, o.seed, tr, root); err != nil {
			return fail("set-up: %v", err)
		}
		setups = append(setups, s.took.Seconds())
		// Garbage from a discarded set-up must not become the process's
		// peak RSS, which is the federation's to set.
		debug.FreeOSMemory()
	}
	r.Metrics["setup_s"] = median(setups)

	// One discarded pass lets pools fill, the heap grow and the sockets'
	// code paths page in before anything is timed.
	warm, err := s.withRounds(min(warmupRounds, r.Rounds))
	if err != nil {
		return fail("warm-up: %v", err)
	}
	if _, _, problems := runPass(warm, nil, nil).check(warm, false); len(problems) > 0 {
		return fail("warm-up: %v", problems)
	}

	run := tr.begin("run", root)
	var passes []passMetrics
	record := func(p *pass) passMetrics {
		// Every pass starts from the same heap, so peak RSS does not
		// depend on how many passes the time budget admitted.
		defer debug.FreeOSMemory()
		// A quarter-length traced pass ends before the target; only the
		// full untraced one is held to the accuracy checks.
		m, failed, problems := p.check(s, !o.smoke && o.trace == 0)
		r.Attempted += s.ops()
		r.Failed += failed
		r.problems = append(r.problems, problems...)
		passes = append(passes, m)
		return m
	}
	if o.trace == 1 {
		plain := record(runPass(s, nil, nil))
		traced := record(runPass(s, tr, run))
		run.end()
		r.traceMetrics(tr, plain, traced)
		probes := tr.begin("probes", root)
		calls := probeCalls
		if o.smoke {
			calls = smokeRounds
		}
		pb := &prober{s: s, calls: calls, tr: tr, parent: probes, outDir: o.outDir, out: r.Metrics}
		if err := pb.runProbes(); err != nil {
			return fail("probes: %v", err)
		}
		probes.end()
		root.end()
		r.shares(s, traced)
		r.account(s, tr)
		if err := tr.write(filepath.Join(o.outDir, "trace-"+w.Name+".json")); err != nil {
			return fail("trace: %v", err)
		}
	} else {
		start := time.Now()
		for {
			t0 := time.Now()
			record(runPass(s, nil, nil))
			// Another pass only if at least half of it fits the budget.
			if o.smoke || time.Since(start)+time.Since(t0)/2 > time.Duration(o.seconds*float64(time.Second)) {
				break
			}
		}
		r.endToEnd(passes)
	}
	r.Passes = len(passes)
	r.Digest, r.Curve = passes[0].digest, passes[0].curve
	if s.cfg.AsyncBuffer == 0 {
		// The repo's bitwise pin, seen from outside: synchronous rounds on
		// the same inputs end in the same state, bit for bit.
		for _, m := range passes[1:] {
			if m.digest != r.Digest {
				r.problems = append(r.problems, fmt.Sprintf("final-state digest %s differs from the first pass's %s", m.digest, r.Digest))
			}
		}
	}
	for _, m := range declared(o.trace) {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.problems = append(r.problems, "metric "+m.Name+" was not measured")
		}
	}
	r.Correct = len(r.problems) == 0
	return r
}

// endToEnd reports the median of each end-to-end metric over the passes,
// and its spread when there was more than one.
func (r *result) endToEnd(passes []passMetrics) {
	cols := map[string]func(passMetrics) float64{
		"rounds_per_s":       func(m passMetrics) float64 { return m.roundsPerS },
		"round_ms_p50":       func(m passMetrics) float64 { return m.roundMsP50 },
		"cpu_ms_per_round":   func(m passMetrics) float64 { return m.cpuMsPerRound },
		"bytes_per_round":    func(m passMetrics) float64 { return m.bytesPerRound },
		"final_accuracy":     func(m passMetrics) float64 { return m.finalAccuracy },
		"rounds_to_target":   func(m passMetrics) float64 { return m.roundsToTarget },
		"time_to_target_s":   func(m passMetrics) float64 { return m.timeToTargetS },
		"bytes_to_target_mb": func(m passMetrics) float64 { return m.bytesToTargetMB },
	}
	for name, col := range cols {
		xs := make([]float64, len(passes))
		for i, m := range passes {
			xs[i] = col(m)
		}
		r.Metrics[name] = median(xs)
		if len(xs) > 1 {
			r.Spread[name] = spread(xs)
		}
	}
	r.Metrics["peak_rss_mb"] = peakRSSMB()
}

// traceMetrics reports what the traced pass and the set-up spans measured.
func (r *result) traceMetrics(tr *tracer, plain, traced passMetrics) {
	r.Metrics["simnet.bytes_per_round"] = traced.bytesPerRound
	r.Metrics["simnet.dropped_updates"] = float64(traced.dropped)
	r.Metrics["fl.engine.round_ms_p90"] = quantile(traced.roundMs, 0.9)
	r.Metrics["fl.engine.round_ms_max"] = quantile(traced.roundMs, 1)
	if plain.roundsPerS > 0 {
		r.Metrics["trace_overhead"] = traced.roundsPerS / plain.roundsPerS
	}
	spanMs := func(name string) []float64 {
		var out []float64
		for _, sp := range tr.named(name) {
			out = append(out, ms(sp.dur()))
		}
		return out
	}
	r.Metrics["data.load_ms"] = median(spanMs("data.load"))
	r.Metrics["partition.split_ms"] = median(spanMs("partition.split"))
}

// shares verifies the workload's design: which layer a round's time goes
// to. With K parties on GOMAXPROCS cores a round is ceil(K/cores) train
// steps deep; on synchronous rounds Duration excludes evaluation, so the
// denominator adds it back.
func (r *result) shares(s *setup, traced passMetrics) {
	k, cores := s.shared.Parties, runtime.GOMAXPROCS(0)
	depth := float64((k + cores - 1) / cores)
	eval := r.Metrics["fl.eval.accuracy_ms"]
	round := traced.roundMsP50
	if s.cfg.AsyncBuffer == 0 {
		round += eval
	}
	r.Metrics["share.train"] = r.Metrics["fl.client.train_ms"] * depth / round
	r.Metrics["share.wire"] = r.Metrics["simnet.wire_round_ms"] / round
	r.Metrics["share.eval"] = eval / round
}

// account checks that the traced pass's round spans explain its
// accept-and-run span: what is left after the rounds and (on synchronous
// rounds, whose Duration excludes it) the evaluations is admission and the
// final state copy.
func (r *result) account(s *setup, tr *tracer) {
	var rounds float64
	for _, sp := range tr.named("round") {
		rounds += ms(sp.dur())
	}
	whole := ms(tr.named("accept-and-run")[0].dur())
	var eval float64
	if s.cfg.AsyncBuffer == 0 {
		eval = r.Metrics["fl.eval.accuracy_ms"] * float64(s.cfg.Rounds)
	}
	r.Metrics["trace.unaccounted"] = (whole - rounds - eval) / whole
	fmt.Fprintf(os.Stderr, "benchmark: %s: trace: accept-and-run %.1f ms = rounds %.1f ms + evaluation %.1f ms + %.1f ms unaccounted\n",
		s.w.Name, whole, rounds, eval, whole-rounds-eval)
}
