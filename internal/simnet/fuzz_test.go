package simnet

import (
	"testing"
)

// FuzzDecodeMsg throws arbitrary byte soup at the wire decoders: any
// input must produce a message or an error — never a panic or an
// out-of-bounds read — and anything that decodes must re-encode. The
// header-only chunk parsers the readers use are fuzzed alongside, with
// their in-place decode.
func FuzzDecodeMsg(f *testing.F) {
	seed := func(msg any) {
		b, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(HelloMsg{ID: 1, N: 100, Token: "tok", LabelDist: []float64{0.5, 0.5}})
	seed(UpdateChunkMsg{Round: 2, Offset: 37, Total: 74, N: 10, Tau: 3, Last: true,
		TrainLoss: 0.5, Chunk: []float64{1, 2, 3}})
	seed(GlobalChunkMsg{Round: 2, Offset: 5, Total: 12, CtrlLen: 4, Budget: 1,
		Chunk: 5, Last: true, Payload: []float64{1, -2}})
	seed(ShutdownMsg{})
	// Quantized chunk frames, one per codec across the two directions.
	seed(UpdateChunkMsg{Round: 2, Offset: 37, Total: 74, N: 10, Tau: 3, Last: true,
		TrainLoss: 0.5, Codec: wireCodecInt8, Chunk: []float64{0.5, -0.5, 63.5}})
	seed(UpdateChunkMsg{Round: 1, Offset: 0, Total: 4, N: 5, Tau: 2, Last: true,
		TrainLoss: 0.25, Codec: wireCodecInt4, Chunk: []float64{0.25, -0.5, 1.75, 0}})
	seed(GlobalChunkMsg{Round: 2, Offset: 5, Total: 12, CtrlLen: 4, Budget: 1,
		Chunk: 5, Last: true, Codec: wireCodecF32, Payload: []float64{1, -2}})
	// Elastic-membership frames: a rejoin hello and both resync shapes
	// (with and without a SCAFFOLD control vector).
	seed(HelloMsg{ID: 2, N: 50, Token: "t", Rejoin: true, LabelDist: []float64{0.25, 0.75}})
	seed(ResyncMsg{Round: 4, ExpectTau: 7, Control: []float64{0.5, -1}})
	seed(ResyncMsg{Round: 1, ExpectTau: 3})
	f.Add([]byte{msgResync})
	f.Add([]byte{msgResync, 0xFF, 0xFF, 0xFF, 0xFF})
	// Hello version-preamble soup: a future version still offering an
	// overlapping range (admitted), a disjoint range and a pre-v5 peer
	// (both decode to a VersionError, never a misaligned field read), a
	// wrong magic, and preambles truncated at every byte.
	seed(HelloMsg{ID: 1, N: 100, Version: 99})
	seed(HelloMsg{ID: 3, N: 7, Version: ProtoVersion, MinVersion: MinProtoVersion, LabelDist: []float64{1}})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion + 2, ProtoVersion + 1, 0})
	f.Add([]byte{msgHello, protoMagic, 4, 2, 0x0F, 0})
	f.Add([]byte{msgHello})
	f.Add([]byte{msgHello, protoMagic})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion, MinProtoVersion})
	f.Add([]byte{msgHello, protoMagic, ProtoVersion, MinProtoVersion, 0x0F})
	f.Add([]byte{msgHello, 0x00, ProtoVersion, 1, 2, 3, 4})
	f.Add([]byte{})
	f.Add([]byte{msgUpdateChunk, 0, 1, 2})
	f.Add([]byte{msgGlobalChunk, 0, 1, 2})
	f.Add([]byte{99, 255, 255, 255, 255})
	// The tags retired with the pre-v5 wire, each over a plausible body
	// (including a hostile ~1G-element length word): rejected with an
	// error, never a panic, never an allocation.
	for _, tag := range []byte{1, 2, 7, 9, 10} {
		f.Add([]byte{tag, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x3F})
	}
	// Structured truncations: valid encodings cut at the tag, inside a
	// length prefix, at a field boundary, and one byte short of complete —
	// the exact offsets where a decoder is most likely to over-read.
	seedTruncations := func(msg any) {
		b, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		for _, cut := range []int{1, 3, len(b) / 2, len(b) - 1} {
			if cut > 0 && cut < len(b) {
				f.Add(append([]byte(nil), b[:cut]...))
			}
		}
	}
	seedTruncations(GlobalChunkMsg{Round: 1, Offset: 0, Total: 3, CtrlLen: 1, Budget: 1, Chunk: 2, Payload: []float64{5}})
	seedTruncations(UpdateChunkMsg{Round: 1, Offset: 0, Total: 3, N: 5, Tau: 2, Last: true,
		TrainLoss: 0.5, Codec: wireCodecInt8, Chunk: []float64{1, 2, 3}})
	seedTruncations(GlobalChunkMsg{Round: 1, Offset: 0, Total: 3, CtrlLen: 1, Budget: 1,
		Chunk: 2, Last: true, Codec: wireCodecInt4, Payload: []float64{1, 2, 3}})
	// A hostile length prefix: a raw chunk frame whose count word claims
	// ~1G elements with no payload behind it must be refused before
	// anything is allocated.
	f.Add(append(append([]byte{msgGlobalChunk}, make([]byte, 6*4)...), 1, 0xFF, 0xFF, 0xFF, 0x3F))
	// Trailing garbage after a complete frame must not decode silently.
	for _, msg := range []any{ShutdownMsg{}, ResyncMsg{Round: 1, ExpectTau: 3}} {
		if b, err := Marshal(msg); err == nil {
			f.Add(append(b, 0xDE, 0xAD))
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := Unmarshal(raw)
		if err == nil {
			b, err := Marshal(msg)
			if err != nil {
				t.Fatalf("decoded %T failed to re-encode: %v", msg, err)
			}
			// Only the hello may carry bytes past its layout (see HelloMsg).
			if raw[0] != msgHello && len(b) != len(raw) {
				t.Fatalf("%T decoded from %d bytes re-encodes to %d: trailing bytes were accepted", msg, len(raw), len(b))
			}
		}
		if len(raw) > 0 && err == nil {
			switch raw[0] {
			case 1, 2, 7, 9, 10:
				t.Fatalf("retired tag %d decoded as %T", raw[0], msg)
			}
		}
		// The readers' path: header first, then the payload decoded in
		// place into a buffer exactly count long.
		var small [4]float64
		if _, p, err := parseUpdateChunk(raw); err == nil && p.count <= len(small) {
			_ = p.decodeInto(small[:p.count])
		}
		if _, p, err := parseGlobalChunk(raw); err == nil && p.count <= len(small) {
			_ = p.decodeInto(small[:p.count])
		}
	})
}
