package simnet

import (
	"fmt"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// BenchmarkRoundCodec sweeps whole federated rounds over codec x K: the
// bytes/round metric is the on-wire cost of one round at each codec (the
// PR's accuracy-vs-bytes denominator), and ns/op tracks how round CPU
// scales with the federation size — with the encode-once broadcast cache
// the quantization work is paid once per round per codec, not once per
// party, so growing K must not multiply the encode cost.
func BenchmarkRoundCodec(b *testing.B) {
	for _, parties := range []int{4, 16} {
		train, test, err := data.Load("adult", data.Config{TrainN: parties * 12, TestN: 60, Seed: 51})
		if err != nil {
			b.Fatal(err)
		}
		_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, parties, rng.New(52))
		if err != nil {
			b.Fatal(err)
		}
		spec, _ := data.Model("adult")
		for _, codec := range []fl.Codec{fl.CodecF64, fl.CodecF32, fl.CodecInt8} {
			b.Run(fmt.Sprintf("codec=%s/K=%d", codec, parties), func(b *testing.B) {
				cfg := fl.Config{
					Algorithm: fl.FedAvg, Rounds: 2, LocalEpochs: 1, BatchSize: 16,
					LR: 0.05, Seed: 7, ChunkSize: 512, Parallelism: 1, Codec: codec,
				}
				bytesPerRound := 0.0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := RunLocal(cfg, spec, locals, test)
					if err != nil {
						b.Fatal(err)
					}
					bytesPerRound = res.CommBytesPerRound
				}
				b.ReportMetric(bytesPerRound, "bytes/round")
			})
		}
	}
}

// BenchmarkBroadcastEncode isolates the broadcast serialization cost the
// encode-once cache pays per generation: one frames() call quantizes and
// frames the full global state for a codec, after which every party
// connection reuses the cached byte slices. This cost is per round, not
// per party — the reason broadcast CPU stays flat as K grows.
func BenchmarkBroadcastEncode(b *testing.B) {
	state := quantTestVector(1 << 18) // 256k parameters, 2 MiB at f64
	for _, codec := range []byte{wireCodecF64, wireCodecF32, wireCodecInt8} {
		b.Run("codec="+codecName(codec), func(b *testing.B) {
			b.SetBytes(int64(len(state) * 8))
			for i := 0; i < b.N; i++ {
				bf := newGlobalFrames(1, state, nil, 1, 65536)
				if _, err := bf.frames(codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkDecode is BenchmarkBroadcastEncode's receive-side twin:
// the downlink reader's per-frame work — parseGlobalChunk, then decodeInto
// at the frame's offset — over the same 256k-element state, framed once
// per codec outside the timer.
func BenchmarkChunkDecode(b *testing.B) {
	state := quantTestVector(1 << 18)
	dst := make([]float64, len(state))
	for _, codec := range []byte{wireCodecF64, wireCodecF32, wireCodecInt8} {
		frames, err := newGlobalFrames(1, state, nil, 1, 65536).frames(codec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("codec="+codecName(codec), func(b *testing.B) {
			b.SetBytes(int64(len(state) * 8))
			for i := 0; i < b.N; i++ {
				for _, raw := range frames {
					m, p, err := parseGlobalChunk(raw)
					if err != nil {
						b.Fatal(err)
					}
					if err := p.decodeInto(dst[m.Offset : m.Offset+p.count]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
