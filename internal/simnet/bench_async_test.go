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

// BenchmarkRoundAsync measures global-model refresh throughput
// (rounds/sec: synchronous rounds, or async generations — both advance
// the global once per unit) under stragglers: a quarter of the parties
// dial through a +5ms/frame latency plan. Synchronous rounds wait for the
// slowest party's last chunk every time; buffered-async folds whatever
// arrives and publishes every M folds, so the stragglers only slow their
// own (staleness-discounted) contributions. The sweep spans fold-by-fold
// publishing (M=1), a quarter buffer and a full buffer (M=K, the async
// analogue of a round).
func BenchmarkRoundAsync(b *testing.B) {
	const parties, rounds = 16, 3
	train, test, err := data.Load("adult", data.Config{TrainN: parties * 12, TestN: 60, Seed: 51})
	if err != nil {
		b.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(52))
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := data.Model("adult")
	run := func(b *testing.B, buffer int) {
		cfg := fl.Config{
			Algorithm: fl.FedAvg, Rounds: rounds, LocalEpochs: 1, BatchSize: 16,
			LR: 0.05, Seed: 7, ChunkSize: 512, Parallelism: 1, AsyncBuffer: buffer,
		}
		completed := 0
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			res, _, serveErr := RunLoopback(cfg, spec, locals, test, ServerOptions{RoundTimeout: 30 * time.Second}, func(p int) PartyOptions {
				if p >= parties/4 {
					return PartyOptions{}
				}
				return PartyOptions{Faults: &FaultPlan{Seed: uint64(101 + i + p), Latency: 5 * time.Millisecond}}
			})
			if serveErr != nil {
				b.Fatalf("M=%d: %v", buffer, serveErr)
			}
			completed += len(res.Curve)
		}
		b.ReportMetric(float64(completed)/time.Since(start).Seconds(), "rounds/sec")
	}
	b.Run("sync", func(b *testing.B) { run(b, 0) })
	for _, m := range []int{1, parties / 4, parties} {
		b.Run(fmt.Sprintf("async/M=%d", m), func(b *testing.B) { run(b, m) })
	}
}
