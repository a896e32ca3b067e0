package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
)

// serveFakeParty speaks the party protocol procedurally: it reads the
// global broadcast frame by frame, drops it, and replies with a
// constant-valued update streamed as frames of the server-requested size
// (one frame for the whole vector at size 0). It never holds model state,
// so the process's live heap during a round is protocol buffering: exactly
// what BenchmarkRoundPeakMemory wants to observe.
func serveFakeParty(conn Conn, id, n, stateLen int, cfg fl.Config) error {
	hello, err := Marshal(HelloMsg{ID: id, N: n, LabelDist: []float64{0.5, 0.5}})
	if err != nil {
		return err
	}
	if err := conn.Send(hello); err != nil {
		return err
	}
	tau := fl.PredictTau(cfg, n)
	var frame []byte
	var vals []float64
	for {
		raw, err := conn.Recv()
		if err != nil {
			return nil // server closed us after shutdown
		}
		if len(raw) == 0 || raw[0] == msgShutdown {
			return nil
		}
		m, _, err := parseGlobalChunk(raw)
		if err != nil {
			return fmt.Errorf("fake party %d: %w", id, err)
		}
		raw = nil // release the downlink frame before replying
		if !m.Last {
			continue
		}
		// Stagger replies a little, as real local training would, so the
		// downlink copies are dead by the time the upload burst peaks.
		time.Sleep(time.Duration(200+50*id) * time.Microsecond)
		chunk := frameCap(m.Chunk, stateLen)
		if cap(vals) < chunk {
			vals = make([]float64, chunk)
			for i := range vals {
				vals[i] = 1e-3
			}
		}
		for off := 0; off < stateLen; off += chunk {
			end := min(off+chunk, stateLen)
			frame, err = UpdateChunkMsg{
				Round: m.Round, Offset: off, Total: stateLen,
				N: n, Tau: tau, TrainLoss: 0.5,
				Last: end == stateLen, Chunk: vals[:end-off],
			}.appendTo(frame[:0])
			if err != nil {
				return err
			}
			if err := conn.Send(frame); err != nil {
				return err
			}
		}
	}
}

// BenchmarkRoundPeakMemory measures peak live heap through whole rounds
// of the wire protocol as the number of in-flight parties grows, swept
// over the frame size (whole = ChunkSize 0, one frame per vector). A
// sampler goroutine forces GCs and tracks the high-water HeapAlloc,
// reported as peak-live-B. The server holds the O(state) accumulator plus
// at most foldAhead pooled stream buffers at every frame size; what the
// frame size changes is the serialized frames in flight — one whole state
// vector per party and direction at size 0, one small frame per pipe
// otherwise.
func BenchmarkRoundPeakMemory(b *testing.B) {
	spec := nn.ModelSpec{Kind: nn.KindMLP, InputDim: 20000, Classes: 2}
	stateLen := nn.Build(spec, rng.New(1)).StateCount()
	for _, parties := range []int{4, 16, 48} {
		for _, chunk := range []int{0, 4096, 16384} {
			name := "whole"
			if chunk > 0 {
				name = fmt.Sprintf("chunk=%d", chunk)
			}
			b.Run(fmt.Sprintf("parties=%d/%s", parties, name), func(b *testing.B) {
				cfg, err := fl.Config{
					Algorithm: fl.FedAvg, Rounds: 2, LocalEpochs: 1,
					BatchSize: 32, Seed: 7, Parallelism: 1,
					ChunkSize: chunk,
				}.Normalize()
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				base := ms.HeapAlloc
				var peak atomic.Uint64
				stop := make(chan struct{})
				var samplerDone sync.WaitGroup
				samplerDone.Add(1)
				go func() {
					defer samplerDone.Done()
					var ms runtime.MemStats
					for {
						select {
						case <-stop:
							return
						default:
						}
						runtime.GC()
						runtime.ReadMemStats(&ms)
						for {
							old := peak.Load()
							if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
								break
							}
						}
						time.Sleep(time.Millisecond)
					}
				}()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fed := pipeFed(b, cfg, spec, nil, parties, ServerOptions{})
					_, partyErrs, err := fed.federate(parties, func(p int) error {
						conn, err := fed.connect()
						if err != nil {
							return err
						}
						defer conn.Close()
						return serveFakeParty(conn, p, 64, stateLen, cfg)
					})
					if err != nil {
						b.Fatal(err)
					}
					reportErrs(b, partyErrs)
				}
				b.StopTimer()
				close(stop)
				samplerDone.Wait()
				p := peak.Load()
				if p > base {
					p -= base
				} else {
					p = 0
				}
				b.ReportMetric(float64(p), "peak-live-B")
			})
		}
	}
}
