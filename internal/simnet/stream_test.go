package simnet

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// settleGoroutines waits for the goroutine count to fall to target (or
// gives up after ~5s) and returns the last count seen.
func settleGoroutines(target int) int {
	var n int
	for i := 0; i < 100; i++ {
		if n = runtime.NumGoroutine(); n <= target {
			return n
		}
		time.Sleep(50 * time.Millisecond)
	}
	return n
}

// TestStreamViolationsEvictOffender drives every way an update stream can
// break the framing contract through the single updateReader, under both
// schedulers that consume it: the synchronous fold (TrainRound) and the
// buffered-async coordinator (RunAsync). Each violation must permanently
// evict exactly the offender, drop only its update — the honest parties'
// rounds all complete and the model stays finite — and leave neither a
// goroutine nor a pooled stream buffer behind.
func TestStreamViolationsEvictOffender(t *testing.T) {
	train, test, err := data.Load("adult", data.Config{TrainN: 400, TestN: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 2, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := data.Model("adult")
	const (
		chunk  = 64
		rogueN = 50
	)

	// Each case rewrites the offender's otherwise valid stream (frames of
	// `chunk` elements; the state is several frames long).
	cases := []struct {
		name   string
		mutate func(fr []UpdateChunkMsg) []UpdateChunkMsg
	}{
		{"round changes mid-stream", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[1].Round++
			return fr
		}},
		{"wrong total", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[0].Total++
			return fr
		}},
		{"meta N mismatch", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[0].N++
			return fr
		}},
		{"meta Tau mismatch", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[0].Tau++
			return fr
		}},
		{"oversize chunk", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			// The whole update as one giant frame despite the small frame size.
			total := fr[0].Total
			fr[0].Chunk, fr[0].Last = make([]float64, total), true
			return fr[:1]
		}},
		{"offset gap", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[1].Offset += chunk / 2
			return fr
		}},
		{"offset overlap", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[1].Offset -= chunk / 2
			return fr
		}},
		{"stream overflow", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			last := &fr[len(fr)-1]
			last.Chunk = append(append([]float64{}, last.Chunk...), 0)
			return fr
		}},
		{"early last marker", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[0].Last = true
			return fr
		}},
		{"missing last marker", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[len(fr)-1].Last = false
			return fr
		}},
		{"empty non-final frame", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[0].Chunk = nil
			return fr
		}},
		{"codec switch mid-stream", func(fr []UpdateChunkMsg) []UpdateChunkMsg {
			fr[1].Codec = wireCodecInt8
			return fr
		}},
	}
	schedulers := []struct {
		name  string
		async int
	}{{"sync", 0}, {"async", 2}}

	for _, sched := range schedulers {
		for _, tc := range cases {
			t.Run(sched.name+"/"+tc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg, err := fl.Config{Algorithm: fl.FedAvg, Rounds: 3, LocalEpochs: 1, BatchSize: 32,
					LR: 0.05, Seed: 5, ChunkSize: chunk, AsyncBuffer: sched.async}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				tau := fl.PredictTau(cfg, rogueN)
				res, fed, evictions, err := serveWithScripted(t, cfg, spec, locals, test, rogueN, sched.async > 0,
					func(conn Conn, g GlobalMsg) error {
						fr := updateFrames(g, rogueN, tau, 1e6) // huge values: folding any of it would show
						if len(fr) < 3 || len(fr[len(fr)-1].Chunk) == chunk {
							t.Errorf("stream geometry degenerate: %d frames, last %d elements", len(fr), len(fr[len(fr)-1].Chunk))
						}
						return sendFrames(conn, tc.mutate(fr))
					})
				if err != nil {
					t.Fatalf("federation should survive the violation: %v", err)
				}
				if len(evictions) != 1 || evictions[0].Party != scriptedID || evictions[0].Kind != Evicted {
					t.Fatalf("want exactly one permanent eviction of party %d, got %v", scriptedID, evictions)
				}
				if len(res.Curve) != cfg.Rounds {
					t.Fatalf("completed %d/%d rounds", len(res.Curve), cfg.Rounds)
				}
				if sched.async == 0 {
					assertEvictedAt(t, res.Curve, scriptedID, 0)
					for _, m := range res.Curve {
						if drops := len(m.Dropped); drops > 1 || (m.Round > 0 && drops > 0) {
							t.Fatalf("round %d dropped %v; only the offender's round-0 update may go", m.Round, m.Dropped)
						}
					}
				} else {
					for _, m := range res.Curve {
						for _, id := range m.Sampled {
							if id == scriptedID {
								t.Fatalf("generation %d folded the offender's update", m.Round)
							}
						}
					}
				}
				for i, v := range res.FinalState {
					if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e3 {
						t.Fatalf("state[%d] = %v: the offender's stream reached the model", i, v)
					}
				}
				if out := fed.streamsOut.Load(); out != 0 {
					t.Fatalf("%d pooled stream buffers still out after the run", out)
				}
				if after := settleGoroutines(before); after > before {
					buf := make([]byte, 1<<20)
					t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
				}
			})
		}
	}
}
