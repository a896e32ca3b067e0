// Package simnet runs a federation over an explicit message-passing
// transport — framed in-memory net.Pipe conns or real TCP sockets, both
// admitted by the one accept loop — with binary serialization of every
// model exchange. Where package fl simulates the
// algorithm with function calls and analytic byte accounting, simnet moves
// actual bytes, so the communication costs reported for Table IV are
// measured rather than computed, and the server/party protocol is
// exercised end to end.
package simnet

import (
	"fmt"

	"github.com/niid-bench/niidbench/internal/le"
)

// Message type tags. Tags 1, 2, 7, 9 and 10 belonged to message types
// retired at ProtoVersion 5 (whole-message GlobalMsg/UpdateMsg, the pipe
// interning descriptor and the separate quantized chunk frames); they are
// never reassigned and decode as unknown tags.
const (
	msgShutdown    byte = 3
	msgHello       byte = 4
	msgUpdateChunk byte = 5
	msgGlobalChunk byte = 6
	msgResync      byte = 8
)

// The hello opens with a fixed magic byte and a protocol version range,
// so a peer from a different build generation is turned away with a clean
// reason at admission instead of producing a misaligned decode deeper in
// the round. The magic distinguishes "not this protocol at all" (a stray
// client) from version skew; the version gates every message layout after
// the hello, so any PR that changes a frame must bump ProtoVersion.
const (
	protoMagic byte = 0xF7
	// ProtoVersion is the newest wire protocol generation this build
	// speaks. Version 6 is the one-frame wire — a single chunk frame per
	// direction whose flags byte carries the payload codec, with
	// whole-message mode being one frame per vector — carrying only what
	// its reader uses: the downlink header has five uint32 fields and a
	// resync only the party's tracked control variate.
	ProtoVersion byte = 6
	// MinProtoVersion is the oldest generation this build still admits.
	// A hello carries the peer's own [min,max] range and the server admits
	// when the ranges overlap, so a future generation that still speaks 6
	// federates with this build; generations 1-5 laid out the downlink and
	// resync frames differently and are turned away.
	MinProtoVersion byte = 6
)

// VersionError reports a hello whose supported protocol range has no
// overlap with this build's. Admission reports it, wrapped, as the Err of
// a Refused event (ServerOptions.Events) so the operator sees exactly
// which side is stale. For a peer older than MinProtoVersion GotMin
// equals Got: the hello is refused on its version byte alone, without
// parsing a layout this build no longer knows.
type VersionError struct {
	Got    byte // the peer's newest supported version
	GotMin byte // the peer's oldest supported version
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("simnet: peer speaks protocol versions [%d,%d], this build speaks [%d,%d]: no overlap",
		e.GotMin, e.Got, MinProtoVersion, ProtoVersion)
}

// maxTokenLen bounds the handshake token on the wire so a hostile hello
// cannot demand an arbitrary allocation.
const maxTokenLen = 4096

// GlobalMsg describes one round broadcast before it is framed: the global
// model state and, for SCAFFOLD, the server control variate, plus the
// round metadata every GlobalChunkMsg frame repeats. It is not a wire
// message — the broadcast travels as GlobalChunkMsg frames.
type GlobalMsg struct {
	Round   int
	State   []float64
	Control []float64 // nil unless SCAFFOLD
	// Chunk is the frame size in float64 elements the server wants replies
	// framed with; 0 asks for one frame per vector. The server's value is
	// authoritative — parties follow it, so both sides of a deployment
	// never need matching flags.
	Chunk int
}

// HelloMsg is the party-to-server handshake sent once at connect: the
// party's identity, an optional shared-secret token, and what the server
// needs for weighting (dataset size) and stratified sampling (label
// distribution). On the wire it opens with the protocol magic and the
// [MinVersion, Version] range the party speaks. Marshal stamps the build's
// ProtoVersion/MinProtoVersion when the fields are zero, so ordinary
// callers never set them (tests craft skewed hellos by setting them
// explicitly). The hello is the one frame read before the peers agree on a
// version, so it is the one frame whose decoder ignores trailing bytes: a
// newer generation that still speaks 6 can extend it only at the tail.
type HelloMsg struct {
	ID         int
	N          int
	Token      string
	LabelDist  []float64
	Version    byte
	MinVersion byte
	// Rejoin marks a re-hello from a party that was admitted earlier and
	// lost its connection: the server re-admits it under its old ID (unless
	// it was evicted for a protocol violation) and replies with a ResyncMsg
	// before the next round broadcast.
	Rejoin bool
	// Codecs is the bitmask of wire chunk codecs the sender can decode
	// (bit c set ⇔ wire codec c; see the quant.go identifiers). Marshal
	// stamps the build's full support mask when the field is zero; a peer
	// whose mask lacks the server's configured codec rides raw float64.
	Codecs byte
}

// ResyncMsg is the server-to-party reply to a rejoin hello: everything a
// reconnecting party needs to continue as if it never left. Control is
// the party's own SCAFFOLD control variate c_i as tracked by the server
// from the party's past control-delta uploads (nil for other
// algorithms), so even a party that lost its local state — a restarted
// process — resumes with the exact c_i it had. MOON's previous-round
// local model is deliberately NOT replayed: the server never stores
// per-party model states (that would be O(parties x state) memory), so a
// rejoined party that lost it cold-starts from the next global model,
// which is MOON's documented first-round behavior.
type ResyncMsg struct {
	Control []float64
}

// UpdateChunkMsg carries one frame of a party's round reply: a
// consecutive slice of the flattened update stream (the state-length
// delta followed, for SCAFFOLD, by the parameter-length control delta).
// Offset indexes the combined stream, Total is its full length, and Last
// marks the final frame. N/Tau/TrainLoss repeat the update's trailer
// metadata on every frame (16 bytes — negligible against the payload) so
// the server validates a stream against its expected meta on the first
// frame, refusing a mismatched update before any of it is staged.
//
// Codec is the wire encoding of Chunk and rides the frame's flags byte
// (bit 0 = Last, bits 1-3 = codec): raw float64 (codec 0) frames are
// byte-identical to every earlier protocol generation; a quantized frame
// carries its element count, the frame's dequantization scale and the
// packed payload. Chunk always holds float64 values — Marshal quantizes
// them, Unmarshal dequantizes — and the frame is the quantization unit:
// each is encoded independently with its own scale. Frames of one stream
// must all use one codec.
type UpdateChunkMsg struct {
	Round     int
	Offset    int
	Total     int
	N         int
	Tau       int
	Last      bool
	Codec     byte
	TrainLoss float64
	Chunk     []float64
}

// GlobalChunkMsg carries one frame of the server's round broadcast: a
// consecutive slice of the flattened downlink stream (the state vector
// followed, for SCAFFOLD, by the server control variate), symmetric to
// the uplink's UpdateChunkMsg — including the Codec in the flags byte.
// Offset indexes the combined stream, Total is its full length and
// CtrlLen the control suffix, so the party can split the reassembled
// buffer without a separate header frame. Chunk repeats the GlobalMsg
// round metadata on every frame (4 bytes — negligible against the
// payload) so the party validates the stream's shape on its first frame.
type GlobalChunkMsg struct {
	Round   int
	Offset  int
	Total   int
	CtrlLen int
	Chunk   int
	Last    bool
	Codec   byte
	Payload []float64
}

// ShutdownMsg tells a party the run is over.
type ShutdownMsg struct{}

// appendU32s encodes header fields, each as a uint32.
func appendU32s(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = le.AppendU32(b, uint32(v))
	}
	return b
}

// readU32s decodes what appendU32s encodes.
func readU32s(r *le.Reader, dst ...*int) {
	for _, p := range dst {
		*p = int(r.U32())
	}
}

// appendFloats encodes a vector as its uint32 count and the values.
func appendFloats(b []byte, v []float64) []byte {
	return le.AppendF64s(le.AppendU32(b, uint32(len(v))), v)
}

// readFloats decodes what appendFloats encodes; empty decodes as nil.
func readFloats(r *le.Reader) []float64 {
	if v := r.F64s(uint64(r.U32())); len(v) > 0 {
		return v
	}
	return nil
}

// chunkFlags packs a chunk frame's last marker and codec into its flags
// byte.
func chunkFlags(last bool, codec byte) byte {
	f := codec << 1
	if last {
		f |= 1
	}
	return f
}

// appendChunkPayload encodes a chunk frame's tail: the element count, then
// the raw float64 values, or — for a quantized codec — the frame's scale
// and packed payload, quantized straight into b.
func appendChunkPayload(b []byte, codec byte, v []float64) ([]byte, error) {
	b = le.AppendU32(b, uint32(len(v)))
	if codec == wireCodecF64 {
		return le.AppendF64s(b, v), nil
	}
	at := len(b)
	// The scale is known only after the pass over v: reserve its slot, then
	// rewrite it in place (b[:at] has the capacity, so nothing moves).
	b, scale, err := quantizeChunk(le.AppendF64(b, 0), codec, v)
	if err != nil {
		return nil, err
	}
	le.AppendF64(b[:at], scale)
	return b, nil
}

// globalChunkLen is the encoded size of a GlobalChunkMsg frame carrying n
// elements in the given codec, so a frame set can be sized before it is
// encoded.
func globalChunkLen(codec byte, n int) (int, error) {
	const header = 1 + 5*4 + 1 + 4 // tag, five uint32 fields, flags, count
	q, err := payloadLen(codec, uint64(n))
	if codec != wireCodecF64 {
		q += 8 // scale
	}
	return header + int(q), err
}

// chunkPayload is a chunk frame's still-encoded tail: a view into the
// received frame, validated for size, that decodes into a caller-chosen
// destination — the assembly buffer at the frame's offset, so no frame is
// ever decoded twice or copied after decoding.
type chunkPayload struct {
	codec byte
	count int     // float64 elements the payload decodes to
	scale float64 // dequantization scale (quantized codecs only)
	raw   []byte
}

// readChunkPayload parses the tail of a chunk frame whose flags byte was
// flags, and reports any earlier failed read of r. The byte length must
// match the codec and count exactly, so a truncated or padded frame is an
// error before anything is decoded.
func readChunkPayload(flags byte, r *le.Reader) (last bool, p chunkPayload, err error) {
	if flags>>4 != 0 {
		return false, p, fmt.Errorf("simnet: chunk frame flags 0x%02x use reserved bits", flags)
	}
	last, p.codec = flags&1 != 0, flags>>1
	n := r.U32()
	want, err := payloadLen(p.codec, uint64(n)) // a uint32 count cannot overflow it
	if err != nil {
		return false, p, err
	}
	if p.codec != wireCodecF64 {
		p.scale = r.F64()
	}
	if err := r.Err(); err != nil {
		return false, p, fmt.Errorf("simnet: malformed chunk frame: %w", err)
	}
	if uint64(r.Len()) != want {
		return false, p, fmt.Errorf("simnet: %s payload of %d bytes for %d elements, want %d",
			codecName(p.codec), r.Len(), n, want)
	}
	p.count, p.raw = int(n), r.Bytes(r.Len())
	return last, p, nil
}

// decodeInto decodes the payload into dst, which must be count long.
func (p chunkPayload) decodeInto(dst []float64) error {
	return dequantizeChunk(dst, p.codec, p.raw, p.scale)
}

// decode decodes the payload into a fresh slice (nil when empty). The
// allocation is bounded: count was validated against the frame's actual
// byte length, which the transport's receive limit already capped.
func (p chunkPayload) decode() ([]float64, error) {
	if p.count == 0 {
		return nil, nil
	}
	out := make([]float64, p.count)
	if err := p.decodeInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Marshal encodes a message. Supported types: HelloMsg, ResyncMsg,
// UpdateChunkMsg, GlobalChunkMsg, ShutdownMsg.
func Marshal(msg any) ([]byte, error) {
	return AppendMarshal(nil, msg)
}

// AppendMarshal encodes msg appended to dst (which may be nil) and
// returns the extended slice. The per-frame paths, which recycle one
// buffer across frames, call the chunk messages' typed appenders it
// delegates to, so no frame is boxed in an interface.
func AppendMarshal(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case HelloMsg:
		if len(m.Token) > maxTokenLen {
			return nil, fmt.Errorf("simnet: token of %d bytes exceeds limit", len(m.Token))
		}
		v, minv, codecs := m.Version, m.MinVersion, m.Codecs
		if v == 0 {
			v = ProtoVersion
		}
		if minv == 0 {
			minv = MinProtoVersion
		}
		if codecs == 0 {
			codecs = codecSupportMask
		}
		rejoin := byte(0)
		if m.Rejoin {
			rejoin = 1
		}
		b := append(dst, msgHello, protoMagic, v, minv, codecs, rejoin)
		b = appendU32s(b, m.ID, m.N, len(m.Token))
		b = append(b, m.Token...)
		return appendFloats(b, m.LabelDist), nil
	case ResyncMsg:
		return appendFloats(append(dst, msgResync), m.Control), nil
	case UpdateChunkMsg:
		return m.appendTo(dst)
	case GlobalChunkMsg:
		return m.appendTo(dst)
	case ShutdownMsg:
		return append(dst, msgShutdown), nil
	default:
		return nil, fmt.Errorf("simnet: cannot marshal %T", msg)
	}
}

// appendTo is AppendMarshal for an UpdateChunkMsg without boxing it in an
// interface: the per-frame path allocates nothing once dst has room.
func (m UpdateChunkMsg) appendTo(dst []byte) ([]byte, error) {
	b := appendU32s(append(dst, msgUpdateChunk), m.Round, m.Offset, m.Total, m.N, m.Tau)
	b = le.AppendF64(append(b, chunkFlags(m.Last, m.Codec)), m.TrainLoss)
	return appendChunkPayload(b, m.Codec, m.Chunk)
}

// appendTo is UpdateChunkMsg.appendTo's downlink twin.
func (m GlobalChunkMsg) appendTo(dst []byte) ([]byte, error) {
	b := appendU32s(append(dst, msgGlobalChunk), m.Round, m.Offset, m.Total, m.CtrlLen, m.Chunk)
	b = append(b, chunkFlags(m.Last, m.Codec))
	return appendChunkPayload(b, m.Codec, m.Payload)
}

// Unmarshal decodes a message produced by Marshal. Every frame but the
// hello must be exactly as long as its layout: trailing bytes are an error.
func Unmarshal(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("simnet: empty message")
	}
	switch b[0] {
	case msgHello:
		return unmarshalHello(b[1:])
	case msgUpdateChunk:
		m, p, err := parseUpdateChunk(b)
		if err != nil {
			return nil, err
		}
		if m.Chunk, err = p.decode(); err != nil {
			return nil, err
		}
		return m, nil
	case msgGlobalChunk:
		m, p, err := parseGlobalChunk(b)
		if err != nil {
			return nil, err
		}
		if m.Payload, err = p.decode(); err != nil {
			return nil, err
		}
		return m, nil
	case msgResync:
		var m ResyncMsg
		r := le.NewReader(b[1:])
		m.Control = readFloats(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("simnet: malformed resync: %w", err)
		}
		if r.Len() != 0 {
			return nil, fmt.Errorf("simnet: %d trailing bytes after resync", r.Len())
		}
		return m, nil
	case msgShutdown:
		if len(b) != 1 {
			return nil, fmt.Errorf("simnet: %d trailing bytes after shutdown", len(b)-1)
		}
		return ShutdownMsg{}, nil
	default:
		return nil, fmt.Errorf("simnet: unknown message tag %d", b[0])
	}
}

// unmarshalHello decodes the body (everything after the tag byte) of a
// HelloMsg.
func unmarshalHello(b []byte) (HelloMsg, error) {
	var m HelloMsg
	if len(b) < 2 {
		return m, fmt.Errorf("simnet: truncated hello preamble")
	}
	if b[0] != protoMagic {
		return m, fmt.Errorf("simnet: hello magic 0x%02x, want 0x%02x (not a niidbench hello)", b[0], protoMagic)
	}
	m.Version = b[1]
	if m.Version < MinProtoVersion {
		// Older generations laid the preamble out differently; the version
		// byte's position is the one thing every generation shares, so the
		// peer is refused on it alone.
		return m, &VersionError{Got: m.Version, GotMin: m.Version}
	}
	if len(b) < 3 {
		return m, fmt.Errorf("simnet: truncated hello version range")
	}
	m.MinVersion = b[2]
	// Admit on range overlap: the peer must still speak something we do
	// ([MinVersion, Version] ∩ [MinProtoVersion, ProtoVersion] non-empty; an
	// inverted peer range is skew too). Checked before the rest of the
	// preamble, so a skewed peer gets the typed error even off a short one.
	if m.MinVersion > ProtoVersion || m.MinVersion > m.Version {
		return m, &VersionError{Got: m.Version, GotMin: m.MinVersion}
	}
	if len(b) < 5 {
		return m, fmt.Errorf("simnet: truncated hello codec mask or rejoin flag")
	}
	m.Codecs, m.Rejoin = b[3], b[4] != 0
	r := le.NewReader(b[5:])
	readU32s(r, &m.ID, &m.N)
	n := r.U32()
	if n > maxTokenLen {
		return m, fmt.Errorf("simnet: token of %d bytes exceeds limit", n)
	}
	m.Token = string(r.Bytes(int(n)))
	m.LabelDist = readFloats(r)
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("simnet: malformed hello: %w", err)
	}
	return m, nil // bytes past LabelDist are a newer generation's (see HelloMsg)
}

// parseUpdateChunk decodes an UpdateChunkMsg frame's header, leaving the
// payload encoded so the caller can validate the header first and then
// decode straight into place. It rejects any other message type.
func parseUpdateChunk(b []byte) (UpdateChunkMsg, chunkPayload, error) {
	var m UpdateChunkMsg
	if len(b) == 0 || b[0] != msgUpdateChunk {
		return m, chunkPayload{}, fmt.Errorf("simnet: expected update chunk, got %s", describeTag(b))
	}
	r := le.NewReader(b[1:])
	readU32s(r, &m.Round, &m.Offset, &m.Total, &m.N, &m.Tau)
	flags := r.U8()
	m.TrainLoss = r.F64()
	last, p, err := readChunkPayload(flags, r)
	if err != nil {
		return m, chunkPayload{}, err
	}
	m.Last, m.Codec = last, p.codec
	return m, p, nil
}

// parseGlobalChunk is parseUpdateChunk's downlink twin.
func parseGlobalChunk(b []byte) (GlobalChunkMsg, chunkPayload, error) {
	var m GlobalChunkMsg
	if len(b) == 0 || b[0] != msgGlobalChunk {
		return m, chunkPayload{}, fmt.Errorf("simnet: expected global chunk, got %s", describeTag(b))
	}
	r := le.NewReader(b[1:])
	readU32s(r, &m.Round, &m.Offset, &m.Total, &m.CtrlLen, &m.Chunk)
	last, p, err := readChunkPayload(r.U8(), r)
	if err != nil {
		return m, chunkPayload{}, err
	}
	m.Last, m.Codec = last, p.codec
	return m, p, nil
}

// describeTag names a frame's tag for "expected X, got Y" errors.
func describeTag(b []byte) string {
	if len(b) == 0 {
		return "an empty message"
	}
	return fmt.Sprintf("message tag %d", b[0])
}
