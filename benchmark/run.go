package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"syscall"
	"time"

	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/simnet"
)

// setup is one workload made ready to run: config, inputs, and how long
// making them took.
type setup struct {
	w      *workload
	cfg    fl.Config
	shared *fedcli.Shared
	in     *inputs
	took   time.Duration
}

// prepare does everything that precedes AcceptAndRun and is worth timing:
// config, dataset generation, the partition, and binding a listener. The
// K party goroutines a pass launches cost microseconds and are left to
// the pass.
func prepare(w *workload, rounds int, seed uint64, tr *tracer, parent *span) (*setup, error) {
	start := time.Now()
	sp := tr.begin("setup", parent)
	defer sp.end()
	cfg, shared, err := buildConfig(w, rounds)
	if err != nil {
		return nil, err
	}
	in, err := generate(w, shared, seed, tr, sp)
	if err != nil {
		return nil, err
	}
	lsp := tr.begin("listen", sp)
	ln, err := simnet.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lsp.end()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	return &setup{w: w, cfg: cfg, shared: shared, in: in, took: time.Since(start)}, nil
}

// withRounds returns the same prepared inputs under another round count
// (the warm-up runs fewer rounds than the timed pass).
func (s *setup) withRounds(rounds int) (*setup, error) {
	cfg, shared, err := buildConfig(s.w, rounds)
	if err != nil {
		return nil, err
	}
	c := *s
	c.cfg, c.shared = cfg, shared
	return &c, nil
}

// pass is what one whole federation over loopback TCP produced.
type pass struct {
	res       *fl.Result
	err       error // AcceptAndRun's
	partyErrs []error
	wall      time.Duration // AcceptAndRun, admission to final evaluation
	cpu       time.Duration // process user+sys over the same interval
}

// runPass runs one federation: the server on the calling goroutine and one
// goroutine per party, all in this process. The loop is closed by
// construction: a party trains only after it receives a global, and the
// server broadcasts only after the fold.
func runPass(s *setup, tr *tracer, parent *span) *pass {
	p := &pass{partyErrs: make([]error, len(s.in.locals))}
	ln, err := simnet.Listen("127.0.0.1:0")
	if err != nil {
		p.err = err
		return p
	}
	var wg sync.WaitGroup
	for i, local := range s.in.locals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.begin("party", parent)
			defer sp.end()
			p.partyErrs[i] = simnet.DialPartyOpts(ln.Addr(), i, local, s.in.spec, s.cfg,
				s.shared.PartySeed(i), s.shared.PartyOptions())
		}()
	}
	sp := tr.begin("accept-and-run", parent)
	cpu0 := cpuTime()
	t0 := time.Now()
	p.res, p.err = ln.AcceptAndRun(s.shared.Parties, s.cfg, s.in.spec, s.in.test)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	sp.end()
	// Closing the listener is what stops AcceptAndRun's accept loop.
	_ = ln.Close()
	wg.Wait()
	if tr != nil && p.res != nil {
		// Round spans are laid end to end from the durations the program
		// itself reported; evaluation is what they leave uncovered.
		at := sp.Start
		for _, m := range p.res.Curve {
			tr.add("round", sp, at, at+m.Duration)
			at += m.Duration
		}
	}
	return p
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// ops counts the party-updates a pass was expected to fold.
func (s *setup) ops() int {
	if s.cfg.AsyncBuffer > 0 {
		return s.cfg.AsyncBuffer * s.cfg.Rounds
	}
	return s.shared.Parties * s.cfg.Rounds
}

// passMetrics are one pass's end-to-end numbers.
type passMetrics struct {
	roundsPerS, roundMsP50, cpuMsPerRound, bytesPerRound float64
	finalAccuracy                                        float64
	roundsToTarget, timeToTargetS, bytesToTargetMB       float64
	roundMs, curve                                       []float64
	dropped                                              int
	digest                                               string
}

// check verifies a pass and derives its metrics. It returns the number of
// failed operations and a line per violated check.
func (p *pass) check(s *setup, checkAccuracy bool) (passMetrics, int, []string) {
	var m passMetrics
	var problems []string
	failed := 0
	for i, err := range p.partyErrs {
		if err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("party %d: %v", i, err))
		}
	}
	if p.err != nil || p.res == nil {
		problems = append(problems, fmt.Sprintf("AcceptAndRun: %v", p.err))
		return m, s.ops(), problems
	}
	res := p.res
	rounds := len(res.Curve)
	if rounds != s.cfg.Rounds {
		problems = append(problems, fmt.Sprintf("%d rounds recorded, %d configured", rounds, s.cfg.Rounds))
	}
	if rounds == 0 {
		return m, s.ops(), problems
	}
	m.roundsPerS = float64(rounds) / p.wall.Seconds()
	m.cpuMsPerRound = ms(p.cpu) / float64(rounds)
	m.bytesPerRound = float64(res.TotalCommBytes) / float64(rounds)
	m.finalAccuracy = res.FinalAccuracy
	reached := false
	var elapsed time.Duration
	var bytes int64
	for i, r := range res.Curve {
		m.roundMs = append(m.roundMs, ms(r.Duration))
		m.curve = append(m.curve, r.TestAccuracy)
		m.dropped += len(r.Dropped)
		if !reached {
			elapsed += r.Duration
			bytes += r.CommBytes
			if r.TestAccuracy >= s.w.Target {
				reached = true
				m.roundsToTarget = float64(i + 1)
			}
		}
	}
	m.roundMsP50 = median(m.roundMs)
	m.timeToTargetS = elapsed.Seconds()
	m.bytesToTargetMB = float64(bytes) / 1e6
	if m.dropped > 0 {
		failed += m.dropped
		problems = append(problems, fmt.Sprintf("%d dropped updates", m.dropped))
	}
	if !reached {
		// The to-target metrics then cover the whole pass, which is a
		// lower bound on the truth; the failed check is what says so.
		m.roundsToTarget = float64(rounds)
	}
	if checkAccuracy {
		if !reached {
			failed++
			problems = append(problems, fmt.Sprintf("target accuracy %.3f never reached (best %.3f)", s.w.Target, res.BestAccuracy))
		}
		if res.BestAccuracy < s.w.Floor {
			problems = append(problems, fmt.Sprintf("best accuracy %.3f below the floor %.3f", res.BestAccuracy, s.w.Floor))
		}
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.FinalState {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	m.digest = fmt.Sprintf("%016x", h.Sum64())
	return m, failed, problems
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
