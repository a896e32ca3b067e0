package simnet

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
)

// quantTestVector builds a deterministic chunk with mixed signs and
// magnitudes spanning several orders, plus the exact-zero and max-|v|
// elements every codec must handle.
func quantTestVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Sin(float64(i)*1.7+0.3) * math.Pow(10, float64(i%5)-2)
	}
	if n > 0 {
		v[0] = 0
	}
	return v
}

// TestQuantizeDequantizeErrorBounds pins each codec's worst-case
// per-element reconstruction error: f64 is exact, f32 is IEEE narrowing
// (relative error at most 2^-24, asserted at 2^-23 for rounding slack),
// and the integer codecs are linear with a per-chunk scale, so the error
// is at most half a quantization step.
func TestQuantizeDequantizeErrorBounds(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 65} {
		v := quantTestVector(n)
		maxAbs := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		for _, codec := range []byte{wireCodecF32, wireCodecInt8, wireCodecInt4} {
			payload, scale, err := quantizeChunk(nil, codec, v)
			if err != nil {
				t.Fatalf("n=%d %s: quantize: %v", n, codecName(codec), err)
			}
			if want, err := payloadLen(codec, uint64(n)); err != nil || uint64(len(payload)) != want {
				t.Fatalf("n=%d %s: payload %d bytes, want %d (err %v)", n, codecName(codec), len(payload), want, err)
			}
			got := make([]float64, n)
			if err := dequantizeChunk(got, codec, payload, scale); err != nil {
				t.Fatalf("n=%d %s: dequantize: %v", n, codecName(codec), err)
			}
			for i := range v {
				var bound float64
				switch codec {
				case wireCodecF32:
					bound = math.Abs(v[i]) * math.Exp2(-23)
				case wireCodecInt8, wireCodecInt4:
					bound = scale/2 + 1e-12
				}
				if d := math.Abs(got[i] - v[i]); d > bound {
					t.Fatalf("n=%d %s: element %d error %g exceeds bound %g (v=%g got=%g scale=%g)",
						n, codecName(codec), i, d, bound, v[i], got[i], scale)
				}
			}
			// The integer scales are pinned to the chunk's max magnitude.
			switch codec {
			case wireCodecInt8:
				if want := maxAbs / 127; scale != want {
					t.Fatalf("n=%d int8 scale %g, want %g", n, scale, want)
				}
			case wireCodecInt4:
				if want := maxAbs / 7; scale != want {
					t.Fatalf("n=%d int4 scale %g, want %g", n, scale, want)
				}
			}
		}
	}
}

// TestQuantizeRejectsNonFinite: NaN and Inf chunks must be refused at
// encode time by the scaled integer codecs — a non-finite element would
// silently poison the per-chunk scale and every neighbour in the chunk.
// (f32 is a plain narrowing: non-finite values cross it faithfully, the
// same way they would cross the raw f64 wire.)
func TestQuantizeRejectsNonFinite(t *testing.T) {
	for _, codec := range []byte{wireCodecInt8, wireCodecInt4} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, _, err := quantizeChunk(nil, codec, []float64{1, bad, 3}); err == nil {
				t.Fatalf("%s: non-finite element %v quantized without error", codecName(codec), bad)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		payload, scale, err := quantizeChunk(nil, wireCodecF32, []float64{bad})
		if err != nil {
			t.Fatalf("f32: narrowing %v errored: %v", bad, err)
		}
		got := make([]float64, 1)
		if err := dequantizeChunk(got, wireCodecF32, payload, scale); err != nil {
			t.Fatalf("f32: dequantize %v: %v", bad, err)
		}
		if !math.IsNaN(bad) && got[0] != bad {
			t.Fatalf("f32: %v narrowed to %v", bad, got[0])
		}
		if math.IsNaN(bad) && !math.IsNaN(got[0]) {
			t.Fatalf("f32: NaN narrowed to %v", got[0])
		}
	}
}

// TestQuantizedDecodeRejectsCorruptFrames: a quantized frame whose bytes
// lie — an unknown codec or reserved bits in the flags byte, a payload
// length disagreeing with the element count, or a scale that is not a
// finite non-negative step — must error, never reconstruct garbage.
func TestQuantizedDecodeRejectsCorruptFrames(t *testing.T) {
	good, err := Marshal(UpdateChunkMsg{Round: 1, Offset: 0, Total: 4, N: 5, Tau: 2, Last: true,
		TrainLoss: 0.5, Codec: wireCodecInt8, Chunk: []float64{0.5, -0.5, 1, 63.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(good); err != nil {
		t.Fatalf("uncorrupted frame: %v", err)
	}
	const flagsAt, scaleAt = 21, 34 // tag + 5 header words; + flags + loss + count
	putScale := func(b []byte, v float64) { binary.LittleEndian.PutUint64(b[scaleAt:], math.Float64bits(v)) }
	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"unknown codec", func(b []byte) []byte { b[flagsAt] = 5<<1 | 1; return b }},
		{"reserved flag bits", func(b []byte) []byte { b[flagsAt] |= 0x40; return b }},
		{"short payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"long payload", func(b []byte) []byte { return append(b, 9) }},
		{"nan scale", func(b []byte) []byte { putScale(b, math.NaN()); return b }},
		{"inf scale", func(b []byte) []byte { putScale(b, math.Inf(1)); return b }},
		{"negative scale", func(b []byte) []byte { putScale(b, -0.5); return b }},
		{"overflowing scale", func(b []byte) []byte { putScale(b, math.MaxFloat64); return b }},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.mut(append([]byte{}, good...))); err == nil {
			t.Fatalf("%s: corrupt quantized frame decoded without error", tc.name)
		}
	}
}

// TestQuantizedFrameRoundTripAllCodecs drives the production encode and
// decode paths end to end for both wire directions: uplink frames through
// AppendMarshal -> the in-place parse/decode the updateReader uses,
// downlink frames through the encode-once broadcast cache -> Unmarshal.
// The reconstructed vectors must respect the per-codec error bounds and
// the frame's codec must match what was negotiated.
func TestQuantizedFrameRoundTripAllCodecs(t *testing.T) {
	const n = 50
	v := quantTestVector(n)
	for _, codec := range []byte{wireCodecF64, wireCodecF32, wireCodecInt8, wireCodecInt4} {
		// Uplink: one update chunk frame.
		frame, err := AppendMarshal(nil, UpdateChunkMsg{
			Round: 2, Offset: 0, Total: n, N: 9, Tau: 3, Last: true, TrainLoss: 0.25, Codec: codec, Chunk: v,
		})
		if err != nil {
			t.Fatalf("%s: encode uplink: %v", codecName(codec), err)
		}
		m, p, err := parseUpdateChunk(frame)
		if err != nil {
			t.Fatalf("%s: parse uplink: %v", codecName(codec), err)
		}
		if m.Codec != codec {
			t.Fatalf("uplink codec %s, want %s", codecName(m.Codec), codecName(codec))
		}
		if m.Round != 2 || m.N != 9 || m.Tau != 3 || !m.Last || m.TrainLoss != 0.25 || m.Total != n || p.count != n {
			t.Fatalf("%s: uplink header mangled: %+v", codecName(codec), m)
		}
		up := make([]float64, n)
		if err := p.decodeInto(up); err != nil {
			t.Fatalf("%s: decode uplink: %v", codecName(codec), err)
		}
		assertQuantClose(t, codecName(codec)+" uplink", v, up, codec)

		// Downlink: the encode-once cache serializes the generation into
		// frames for this codec; a scripted receiver reassembles.
		state, control := v[:n-10], v[n-10:]
		bf := newGlobalFrames(4, state, control, 1, 16)
		frames, err := bf.frames(codec)
		if err != nil {
			t.Fatalf("%s: encode downlink: %v", codecName(codec), err)
		}
		got := make([]float64, 0, n)
		for i, raw := range frames {
			msg, err := Unmarshal(raw)
			if err != nil {
				t.Fatalf("%s: decode downlink frame %d: %v", codecName(codec), i, err)
			}
			gm := msg.(GlobalChunkMsg)
			if gm.Codec != codec {
				t.Fatalf("downlink frame %d codec %s, want %s", i, codecName(gm.Codec), codecName(codec))
			}
			if gm.Round != 4 || gm.Total != n || gm.CtrlLen != 10 {
				t.Fatalf("%s: downlink header mangled: %+v", codecName(codec), gm)
			}
			if gm.Last != (i == len(frames)-1) {
				t.Fatalf("%s: frame %d Last=%v", codecName(codec), i, gm.Last)
			}
			got = append(got, gm.Payload...)
		}
		assertQuantClose(t, codecName(codec)+" downlink", v, got, codec)

		// The cache must hand every caller the identical frame set: the
		// whole point of encode-once is one serialization per codec.
		again, err := bf.frames(codec)
		if err != nil {
			t.Fatalf("%s: second frames(): %v", codecName(codec), err)
		}
		if len(again) != len(frames) {
			t.Fatalf("%s: frame count changed between calls", codecName(codec))
		}
		for i := range frames {
			if &frames[i][0] != &again[i][0] {
				t.Fatalf("%s: frames() re-encoded instead of returning the cached set", codecName(codec))
			}
		}
	}
}

// assertQuantClose checks got against want under codec's error bound.
func assertQuantClose(t *testing.T, label string, want, got []float64, codec byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: reconstructed %d elements, want %d", label, len(got), len(want))
	}
	maxAbs := 0.0
	for _, x := range want {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range want {
		var bound float64
		switch codec {
		case wireCodecF64:
			bound = 0
		case wireCodecF32:
			bound = math.Abs(want[i]) * math.Exp2(-23)
		case wireCodecInt8:
			// Per-chunk scale: the bound is half a step of the worst chunk.
			bound = maxAbs/127/2 + 1e-12
		case wireCodecInt4:
			bound = maxAbs/7/2 + 1e-12
		}
		if d := math.Abs(got[i] - want[i]); d > bound {
			t.Fatalf("%s: element %d error %g exceeds bound %g", label, i, d, bound)
		}
	}
}

// TestRawWireBitwisePin freezes the exact byte encodings of the v5 chunk
// frames. The two f64 literals were captured before the quantized codec
// landed and have never changed: codec=f64 is byte-identical to every
// earlier generation's chunk frame. The int8 literals pin the quantized
// layout — codec in the flags byte, then count, scale and payload with no
// length prefix.
func TestRawWireBitwisePin(t *testing.T) {
	cases := []struct {
		msg  any
		want string
	}{
		{UpdateChunkMsg{Round: 3, Offset: 2, Total: 5, N: 10, Tau: 4, Last: true,
			TrainLoss: 0.125, Chunk: []float64{1.5, -2, 0.25}},
			"050300000002000000050000000a0000000400000001000000000000c03f03000000000000000000f83f00000000000000c0000000000000d03f"},
		{GlobalChunkMsg{Round: 7, Offset: 0, Total: 3, CtrlLen: 1, Budget: 2,
			Chunk: 4, Last: true, Payload: []float64{0.5, -1, 8}},
			"060700000000000000030000000100000002000000040000000103000000000000000000e03f000000000000f0bf0000000000002040"},
		{UpdateChunkMsg{Round: 3, Offset: 2, Total: 5, N: 10, Tau: 4, Last: true,
			TrainLoss: 0.125, Codec: wireCodecInt8, Chunk: []float64{0.5, -63.5, 0.25}},
			"050300000002000000050000000a0000000400000005000000000000c03f03000000000000000000e03f018101"},
		{GlobalChunkMsg{Round: 7, Offset: 0, Total: 3, CtrlLen: 1, Budget: 2,
			Chunk: 4, Codec: wireCodecInt8, Payload: []float64{127, -1, 8}},
			"060700000000000000030000000100000002000000040000000403000000000000000000f03f7fff08"},
	}
	for _, tc := range cases {
		b, err := Marshal(tc.msg)
		if err != nil {
			t.Fatalf("%T: marshal: %v", tc.msg, err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Fatalf("%T wire encoding drifted:\n got %s\nwant %s", tc.msg, got, tc.want)
		}
	}
}

// TestQuantizedWholeVectorFrames pins that a quantized codec needs no
// minimum chunk size: at ChunkSize 0 each vector travels as one frame
// carrying one scale, and the federation runs, learns and saves bytes
// like any other int8 run.
func TestQuantizedWholeVectorFrames(t *testing.T) {
	v := quantTestVector(50)
	frames, err := newGlobalFrames(1, v[:40], v[40:], 0, 0).frames(wireCodecInt8)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("state+control at ChunkSize 0 framed as %d frames, want one per vector", len(frames))
	}
	for i, raw := range frames {
		m, p, err := parseGlobalChunk(raw)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{40, 10}[i]; m.Codec != wireCodecInt8 || p.count != want {
			t.Fatalf("frame %d: %s x %d, want int8 x %d", i, codecName(m.Codec), p.count, want)
		}
	}

	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	base, err := RunLocal(cfg, spec, locals, test) // f64, ChunkSize 0
	if err != nil {
		t.Fatal(err)
	}
	cfg.Codec = fl.CodecInt8
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatalf("codec int8 at ChunkSize 0: %v", err)
	}
	if res.FinalAccuracy < base.FinalAccuracy-0.03 {
		t.Fatalf("accuracy %v at int8/chunk 0 vs %v at f64", res.FinalAccuracy, base.FinalAccuracy)
	}
	if frac := float64(res.TotalCommBytes) / float64(base.TotalCommBytes); frac > 0.2 {
		t.Fatalf("int8 whole-vector frames moved %.2fx the f64 bytes, want <= 0.2x", frac)
	}
}

// TestRunLocalQuantizedCodecs runs the same federation under every codec:
// the lossy wires must still learn (accuracy within a hair of the f64
// baseline) while cutting the measured round bytes — int8 by at least 2x
// over raw float64, the PR's headline claim, at unit-test scale.
func TestRunLocalQuantizedCodecs(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	cfg.ChunkSize = 256
	spec, _ := data.Model("adult")
	base, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		codec fl.Codec
		// maxBytesFrac bounds the codec's measured bytes as a fraction of
		// the f64 baseline; maxAccLoss bounds the accuracy cost.
		maxBytesFrac float64
		maxAccLoss   float64
	}{
		{fl.CodecF32, 0.55, 0.01},
		{fl.CodecInt8, 0.20, 0.02},
		{fl.CodecInt4, 0.12, 0.05},
	}
	for _, tc := range cases {
		t.Run(string(tc.codec), func(t *testing.T) {
			c := cfg
			c.Codec = tc.codec
			res, err := RunLocal(c, spec, locals, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalAccuracy < base.FinalAccuracy-tc.maxAccLoss {
				t.Fatalf("accuracy %v under %s vs %v at f64: lost more than %v",
					res.FinalAccuracy, tc.codec, base.FinalAccuracy, tc.maxAccLoss)
			}
			frac := float64(res.TotalCommBytes) / float64(base.TotalCommBytes)
			if frac > tc.maxBytesFrac {
				t.Fatalf("%s moved %d bytes vs %d at f64 (%.2fx), want <= %.2fx",
					tc.codec, res.TotalCommBytes, base.TotalCommBytes, frac, tc.maxBytesFrac)
			}
		})
	}
}
