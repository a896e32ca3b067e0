package simnet

import (
	"reflect"
	"testing"

	"github.com/niid-bench/niidbench/internal/le"
)

// allMsgFixtures is one representative, fully-populated value per wire
// message type. codeccheck requires every type handled by AppendMarshal
// to round-trip and truncation-sweep here (or in another test), so adding
// a frame to the codec without extending this table is a lint failure,
// not a reviewer catch.
func allMsgFixtures() []any {
	return []any{
		HelloMsg{ID: 4, N: 321, Token: "secret", LabelDist: []float64{0.5, 0.25, 0.25},
			Version: ProtoVersion, MinVersion: MinProtoVersion, Rejoin: true,
			Codecs: codecSupportMask},
		ResyncMsg{Control: []float64{-0.5, 2}},
		UpdateChunkMsg{Round: 3, Offset: 37, Total: 74, N: 10, Tau: 4, Last: true,
			TrainLoss: 0.125, Chunk: []float64{9, 8, 7}},
		GlobalChunkMsg{Round: 5, Offset: 11, Total: 42, CtrlLen: 6,
			Chunk: 16, Last: false, Payload: []float64{-1, 1}},
		// Quantized frames round-trip exactly when every value is a whole
		// number of quantization steps: scale 63.5/127 = 0.5 and 1.75/7 =
		// 0.25 here.
		UpdateChunkMsg{Round: 3, Offset: 37, Total: 74, N: 10, Tau: 4, Last: true,
			TrainLoss: 0.125, Codec: wireCodecInt8, Chunk: []float64{0.5, -0.5, 63.5}},
		GlobalChunkMsg{Round: 5, Offset: 11, Total: 42, CtrlLen: 6,
			Chunk: 16, Last: false, Codec: wireCodecInt4, Payload: []float64{-0.25, 0.5, 1.75}},
		ShutdownMsg{},
	}
}

// TestCodecRoundTripAllMessages pins Marshal/Unmarshal symmetry for every
// message type in one place: decode(encode(m)) must reproduce m exactly.
func TestCodecRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMsgFixtures() {
		b, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%T: marshal: %v", msg, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", msg, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%T round trip mismatch:\n got %#v\nwant %#v", msg, got, msg)
		}
	}
}

// TestCodecTruncationSweepAllMessages decodes every strict prefix of
// every encoded message type: truncations must error — never decode to a
// value, never panic, never read out of bounds. (Types whose encoding is
// a prefix of a longer valid encoding would be a codec design bug this
// sweep surfaces as an unexpectedly successful decode.)
func TestCodecTruncationSweepAllMessages(t *testing.T) {
	for _, msg := range allMsgFixtures() {
		b, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%T: marshal: %v", msg, err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := Unmarshal(b[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d/%d decoded successfully", msg, cut, len(b))
			}
		}
	}
}

// TestDecodeRefusesHostileVectorCount: a resync's control vector and a
// hello's label distribution — the latter read before the token is
// checked — declare a count of 0x20000001 float64 values with 8 bytes
// behind it. On a 32-bit host count*8 wraps to exactly those 8 bytes, so a
// product-form bound passes and the decoder panics in make; the bound must
// hold on every word size (CI runs this test under GOARCH=386 too).
func TestDecodeRefusesHostileVectorCount(t *testing.T) {
	hostile := append(le.AppendU32(nil, 0x20000001), make([]byte, 8)...)
	for _, msg := range []any{ResyncMsg{}, HelloMsg{ID: 1, N: 2, Token: "t"}} {
		b, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b[:len(b)-4], hostile...) // replace the empty vector's count
		if got, err := Unmarshal(b); err == nil {
			t.Fatalf("%T with a hostile vector count decoded: %+v", msg, got)
		}
	}
}

// TestDecodeRefusesTrailingBytes: every frame but the hello is exactly as
// long as its layout. The hello, sent before the peers agree on a version,
// is the one frame a newer generation may extend at the tail.
func TestDecodeRefusesTrailingBytes(t *testing.T) {
	for _, msg := range allMsgFixtures() {
		b, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(append(b, 0))
		if _, isHello := msg.(HelloMsg); isHello {
			if err != nil || !reflect.DeepEqual(got, msg) {
				t.Fatalf("hello with a tail extension: %+v, %v", got, err)
			}
		} else if err == nil {
			t.Fatalf("%T with a trailing byte decoded", msg)
		}
	}
}
