package simnet

import (
	"fmt"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// BenchmarkRoundChurn measures federation round throughput (rounds/sec)
// under membership churn: every party dials through a fault plan that
// kills connections at the given per-frame probability and rejoins with
// fast backoff, so the server pays the real costs of eviction, quorum
// waits, resync handshakes and broadcast healing. drop=0 is the no-churn
// baseline; the gap to it is the price of elasticity at that fault rate.
func BenchmarkRoundChurn(b *testing.B) {
	const parties, rounds = 8, 4
	train, test, err := data.Load("adult", data.Config{TrainN: parties * 12, TestN: 60, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(52))
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := data.Model("adult")
	for _, drop := range []float64{0, 0.1, 0.3} {
		b.Run(fmt.Sprintf("drop=%g", drop), func(b *testing.B) {
			cfg := fl.Config{
				Algorithm: fl.FedAvg, Rounds: rounds, LocalEpochs: 1, BatchSize: 16,
				LR: 0.05, Seed: 7, ChunkSize: 512, Parallelism: 1,
				MinParties: parties / 2, QuorumWait: 2500 * time.Millisecond,
			}
			completed := 0
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				// A fresh seed per iteration keeps fault schedules varied
				// while staying deterministic for a fixed b.N.
				plan := FaultPlan{Seed: uint64(101 + i), DropProb: drop, Grace: 1}
				opts := ServerOptions{RoundTimeout: 30 * time.Second, RejoinGrace: 100 * time.Millisecond}
				res, _, serveErr := RunLoopback(cfg, spec, locals, test, opts, func(int) PartyOptions {
					return PartyOptions{
						Rejoin:           true,
						RejoinBackoff:    2 * time.Millisecond,
						RejoinBackoffMax: 20 * time.Millisecond,
						RejoinAttempts:   50,
						Faults:           &plan,
					}
				})
				if serveErr != nil {
					b.Fatalf("drop=%g: %v", drop, serveErr)
				}
				completed += len(res.Curve)
			}
			b.ReportMetric(float64(completed)/time.Since(start).Seconds(), "rounds/sec")
		})
	}
}
