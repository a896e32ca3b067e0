package simnet

import (
	"fmt"
	"math"
	"slices"

	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/le"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// This file is the quantized half of the chunk codec: the per-frame
// payload encodings that shrink UpdateChunkMsg/GlobalChunkMsg traffic
// while the server accumulator and every snapshot stay float64. The
// chunk frame is the compression unit — each frame's payload is encoded
// independently with its own scale, so a lost or reordered stream fails
// exactly like the raw framing does, and the dtype seam from the f32
// compute backend stays confined to the wire.
//
// Codec identifiers on the wire (bits 1-3 of a chunk frame's flags byte;
// the hello's support mask is bit-indexed by these values):
//
//	f64  — raw float64 payload, byte-identical to the pre-quantization
//	       wire; always supported, the negotiation fallback.
//	f32  — IEEE-754 narrowing, 4 bytes/element (~2x), relative error
//	       ≤ 2^-24 per element.
//	int8 — linear per-chunk scale s = maxAbs/127, q = round(v/s) in
//	       [-127,127], 1 byte/element (~8x), absolute error ≤ s/2.
//	int4 — linear per-chunk scale s = maxAbs/7, biased nibble q+8 in
//	       [1,15] packed two per byte low-nibble-first, ~16x, absolute
//	       error ≤ s/2.
const (
	wireCodecF64  byte = 0
	wireCodecF32  byte = 1
	wireCodecInt8 byte = 2
	wireCodecInt4 byte = 3
)

// codecSupportMask is the bitmask of wire codecs this build can decode,
// carried in the hello (bit c set ⇔ wire codec c decodable).
// f64 is always implied — it is the pre-quantization wire — but the bit
// is set anyway so the mask reads as the complete truth.
const codecSupportMask byte = 1<<wireCodecF64 | 1<<wireCodecF32 | 1<<wireCodecInt8 | 1<<wireCodecInt4

// wireCodec maps the config-level codec name to its wire identifier.
func wireCodec(c fl.Codec) byte {
	switch c {
	case fl.CodecF32:
		return wireCodecF32
	case fl.CodecInt8:
		return wireCodecInt8
	case fl.CodecInt4:
		return wireCodecInt4
	default:
		return wireCodecF64
	}
}

// codecName is the human-readable form used in errors and metrics.
func codecName(c byte) string {
	switch c {
	case wireCodecF64:
		return "f64"
	case wireCodecF32:
		return "f32"
	case wireCodecInt8:
		return "int8"
	case wireCodecInt4:
		return "int4"
	default:
		return fmt.Sprintf("codec-%d", c)
	}
}

// payloadLen returns the payload byte length of n elements under the
// given codec. It counts in uint64, where a uint32 element count cannot
// overflow on any word size.
func payloadLen(codec byte, n uint64) (uint64, error) {
	switch codec {
	case wireCodecF64:
		return 8 * n, nil
	case wireCodecF32:
		return 4 * n, nil
	case wireCodecInt8:
		return n, nil
	case wireCodecInt4:
		return (n + 1) / 2, nil
	default:
		return 0, fmt.Errorf("simnet: unknown chunk codec %s", codecName(codec))
	}
}

// quantizeChunk appends v's quantized payload to dst and returns the
// extended slice together with the chunk's dequantization scale (0 for
// f32, whose elements carry their own exponent, and for an all-zero
// integer chunk). Non-finite values are an encode error rather than a
// silent wrap: a NaN or Inf in the update would otherwise decode as an
// arbitrary finite value and silently corrupt the aggregation.
func quantizeChunk(dst []byte, codec byte, v []float64) ([]byte, float64, error) {
	switch codec {
	case wireCodecF32:
		return le.AppendF32s(dst, v), 0, nil
	case wireCodecInt8, wireCodecInt4:
		maxAbs, finite := tensor.MaxAbs(v)
		if !finite {
			i := slices.IndexFunc(v, func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) })
			return nil, 0, fmt.Errorf("simnet: non-finite value %v in %s chunk", v[i], codecName(codec))
		}
		levels := 127.0
		if codec == wireCodecInt4 {
			levels = 7
		}
		scale := 0.0
		if maxAbs > 0 {
			scale = maxAbs / levels
		}
		if codec == wireCodecInt8 {
			n := len(dst)
			dst = slices.Grow(dst, len(v))[:n+len(v)]
			tensor.QuantizeInt8(dst[n:], v, scale)
			return dst, scale, nil
		}
		quant := func(f float64) int {
			if scale == 0 {
				return 0
			}
			q := int(math.Round(f / scale))
			if q > int(levels) {
				q = int(levels)
			}
			if q < -int(levels) {
				q = -int(levels)
			}
			return q
		}
		for i := 0; i < len(v); i += 2 {
			lo := byte(quant(v[i])+8) & 0x0F
			hi := byte(0)
			if i+1 < len(v) {
				hi = byte(quant(v[i+1])+8) & 0x0F
			}
			dst = append(dst, lo|hi<<4)
		}
		return dst, scale, nil
	default:
		return nil, 0, fmt.Errorf("simnet: cannot quantize with codec %s", codecName(codec))
	}
}

// dequantizeChunk decodes count elements of payload into dst (which must
// be count long), inverting quantizeChunk; an f64 payload is the raw
// values, scale 0. The payload length is validated against the codec's
// exact size so a short or padded frame is an error, never a partial
// decode.
func dequantizeChunk(dst []float64, codec byte, payload []byte, scale float64) error {
	want, err := payloadLen(codec, uint64(len(dst)))
	if err != nil {
		return err
	}
	if uint64(len(payload)) != want {
		return fmt.Errorf("simnet: %s payload of %d bytes for %d elements, want %d",
			codecName(codec), len(payload), len(dst), want)
	}
	// scale*128 bounds every level's magnitude: a scale that decodes the
	// extreme level to ±Inf is as invalid as an infinite one — the decoded
	// frame could not be re-encoded.
	if math.IsNaN(scale) || scale < 0 || math.IsInf(scale*128, 0) {
		return fmt.Errorf("simnet: invalid quantization scale %v", scale)
	}
	switch codec {
	case wireCodecF64:
		le.NewReader(payload).F64sInto(dst)
	case wireCodecF32:
		le.NewReader(payload).F32sInto(dst)
	case wireCodecInt8:
		tensor.DequantizeInt8(dst, payload, scale)
	case wireCodecInt4:
		for i := range dst {
			nib := payload[i/2]
			if i%2 == 1 {
				nib >>= 4
			}
			dst[i] = scale * float64(int(nib&0x0F)-8)
		}
	}
	return nil
}
