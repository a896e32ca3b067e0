// Package simnet runs a federation over an explicit message-passing
// transport — in-memory channel pairs or real TCP sockets — with binary
// serialization of every model exchange. Where package fl simulates the
// algorithm with function calls and analytic byte accounting, simnet moves
// actual bytes, so the communication costs reported for Table IV are
// measured rather than computed, and the server/party protocol is
// exercised end to end.
package simnet

import (
	"encoding/binary"
	"fmt"
	"math"
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
	// speaks. Version 5 is the one-frame wire: a single chunk frame per
	// direction whose flags byte carries the payload codec, with
	// whole-message mode being one frame per vector.
	ProtoVersion byte = 5
	// MinProtoVersion is the oldest generation this build still admits.
	// A hello carries the peer's own [min,max] range and the server admits
	// when the ranges overlap, so a future generation that still speaks 5
	// federates with this build; generations 1-4 framed whole messages and
	// quantized chunks differently and are turned away.
	MinProtoVersion byte = 5
)

// VersionError reports a hello whose supported protocol range has no
// overlap with this build's. Admission surfaces it through
// ServerListener.OnReject so the operator sees exactly which side is
// stale. For a peer older than MinProtoVersion GotMin equals Got: the
// hello is refused on its version byte alone, without parsing a layout
// this build no longer knows.
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
	// Budget is the kernel compute budget (max goroutines per kernel) the
	// party should train under this round; 0 means uncapped. The server
	// sets it when parties share its process, so K concurrently-training
	// parties split the machine instead of oversubscribing it.
	Budget int
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
// explicitly).
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
// reconnecting party needs to continue as if it never left. Round is the
// last completed round; ExpectTau is the per-round local step count the
// server will validate the party's updates against (FedNova bookkeeping);
// Control is the party's own SCAFFOLD control variate c_i as tracked by
// the server from the party's past control-delta uploads (nil for other
// algorithms), so even a party that lost its local state — a restarted
// process — resumes with the exact c_i it had. MOON's previous-round
// local model is deliberately NOT replayed: the server never stores
// per-party model states (that would be O(parties x state) memory), so a
// rejoined party that lost it cold-starts from the next global model,
// which is MOON's documented first-round behavior.
type ResyncMsg struct {
	Round     int
	ExpectTau int
	Control   []float64
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
// buffer without a separate header frame. Budget and Chunk repeat the
// GlobalMsg round metadata on every frame (8 bytes — negligible against
// the payload) so the party validates the stream's shape on its first
// frame.
type GlobalChunkMsg struct {
	Round   int
	Offset  int
	Total   int
	CtrlLen int
	Budget  int
	Chunk   int
	Last    bool
	Codec   byte
	Payload []float64
}

// ShutdownMsg tells a party the run is over.
type ShutdownMsg struct{}

func appendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendFloats(b []byte, v []float64) []byte {
	b = appendUint32(b, uint32(len(v)))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("simnet: truncated uint32")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// readInts decodes consecutive uint32 header fields into dst.
func readInts(b []byte, dst ...*int) ([]byte, error) {
	for _, f := range dst {
		v, rest, err := readUint32(b)
		if err != nil {
			return nil, err
		}
		*f = int(v)
		b = rest
	}
	return b, nil
}

func readFloats(b []byte) ([]float64, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if len(b) < int(n)*8 {
		return nil, nil, fmt.Errorf("simnet: truncated float vector (%d of %d bytes)", len(b), n*8)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, b[int(n)*8:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUint32(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxTokenLen {
		return "", nil, fmt.Errorf("simnet: string of %d bytes exceeds limit", n)
	}
	if len(b) < int(n) {
		return "", nil, fmt.Errorf("simnet: truncated string (%d of %d bytes)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
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
	if codec == wireCodecF64 {
		return appendFloats(b, v), nil
	}
	b = appendUint32(b, uint32(len(v)))
	at := len(b)
	b = append(b, make([]byte, 8)...) // scale slot, known only after the pass over v
	b, scale, err := quantizeChunk(b, codec, v)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(b[at:], math.Float64bits(scale))
	return b, nil
}

// globalChunkLen is the encoded size of a GlobalChunkMsg frame carrying n
// elements in the given codec, so a frame set can be sized before it is
// encoded.
func globalChunkLen(codec byte, n int) (int, error) {
	const header = 1 + 6*4 + 1 // tag, six uint32 fields, flags
	if codec == wireCodecF64 {
		return header + 4 + 8*n, nil
	}
	q, err := quantizedLen(codec, n)
	return header + 4 + 8 + q, err // count, scale, packed payload
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
// flags. The byte length must match the codec and count exactly, so a
// truncated or padded frame is an error before anything is decoded.
func readChunkPayload(flags byte, b []byte) (last bool, p chunkPayload, err error) {
	if flags>>4 != 0 {
		return false, p, fmt.Errorf("simnet: chunk frame flags 0x%02x use reserved bits", flags)
	}
	last, p.codec = flags&1 != 0, flags>>1
	n, b, err := readUint32(b)
	if err != nil {
		return false, p, err
	}
	p.count = int(n)
	want := p.count * 8
	if p.codec != wireCodecF64 {
		if want, err = quantizedLen(p.codec, p.count); err != nil {
			return false, p, err
		}
		if len(b) < 8 {
			return false, p, fmt.Errorf("simnet: truncated quantization scale")
		}
		p.scale = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) != want {
		return false, p, fmt.Errorf("simnet: %s payload of %d bytes for %d elements, want %d",
			codecName(p.codec), len(b), p.count, want)
	}
	p.raw = b
	return last, p, nil
}

// decodeInto decodes the payload into dst, which must be count long.
func (p chunkPayload) decodeInto(dst []float64) error {
	if p.codec != wireCodecF64 {
		return dequantizeChunk(dst, p.codec, p.raw, p.scale)
	}
	raw := p.raw
	if len(raw) != 8*len(dst) {
		return fmt.Errorf("simnet: f64 payload of %d bytes decoded into %d elements", len(raw), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return nil
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
// returns the extended slice — the allocation-free path for per-chunk
// framing, where the caller recycles one buffer across frames.
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
		b = appendUint32(b, uint32(m.ID))
		b = appendUint32(b, uint32(m.N))
		b = appendString(b, m.Token)
		b = appendFloats(b, m.LabelDist)
		return b, nil
	case ResyncMsg:
		b := append(dst, msgResync)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.ExpectTau))
		b = appendFloats(b, m.Control)
		return b, nil
	case UpdateChunkMsg:
		b := append(dst, msgUpdateChunk)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.Offset))
		b = appendUint32(b, uint32(m.Total))
		b = appendUint32(b, uint32(m.N))
		b = appendUint32(b, uint32(m.Tau))
		b = append(b, chunkFlags(m.Last, m.Codec))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.TrainLoss))
		return appendChunkPayload(b, m.Codec, m.Chunk)
	case GlobalChunkMsg:
		b := append(dst, msgGlobalChunk)
		b = appendUint32(b, uint32(m.Round))
		b = appendUint32(b, uint32(m.Offset))
		b = appendUint32(b, uint32(m.Total))
		b = appendUint32(b, uint32(m.CtrlLen))
		b = appendUint32(b, uint32(m.Budget))
		b = appendUint32(b, uint32(m.Chunk))
		b = append(b, chunkFlags(m.Last, m.Codec))
		return appendChunkPayload(b, m.Codec, m.Payload)
	case ShutdownMsg:
		return append(dst, msgShutdown), nil
	default:
		return nil, fmt.Errorf("simnet: cannot marshal %T", msg)
	}
}

// Unmarshal decodes a message produced by Marshal.
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
		b, err := readInts(b[1:], &m.Round, &m.ExpectTau)
		if err != nil {
			return nil, err
		}
		if m.Control, _, err = readFloats(b); err != nil {
			return nil, err
		}
		return m, nil
	case msgShutdown:
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
	b, err := readInts(b[5:], &m.ID, &m.N)
	if err != nil {
		return m, err
	}
	if m.Token, b, err = readString(b); err != nil {
		return m, err
	}
	if m.LabelDist, _, err = readFloats(b); err != nil {
		return m, err
	}
	return m, nil
}

// parseUpdateChunk decodes an UpdateChunkMsg frame's header, leaving the
// payload encoded so the caller can validate the header first and then
// decode straight into place. It rejects any other message type.
func parseUpdateChunk(b []byte) (UpdateChunkMsg, chunkPayload, error) {
	var m UpdateChunkMsg
	if len(b) == 0 || b[0] != msgUpdateChunk {
		return m, chunkPayload{}, fmt.Errorf("simnet: expected update chunk, got %s", describeTag(b))
	}
	b, err := readInts(b[1:], &m.Round, &m.Offset, &m.Total, &m.N, &m.Tau)
	if err != nil {
		return m, chunkPayload{}, err
	}
	if len(b) < 9 {
		return m, chunkPayload{}, fmt.Errorf("simnet: truncated chunk flags or loss")
	}
	m.TrainLoss = math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))
	var p chunkPayload
	if m.Last, p, err = readChunkPayload(b[0], b[9:]); err != nil {
		return m, chunkPayload{}, err
	}
	m.Codec = p.codec
	return m, p, nil
}

// parseGlobalChunk is parseUpdateChunk's downlink twin.
func parseGlobalChunk(b []byte) (GlobalChunkMsg, chunkPayload, error) {
	var m GlobalChunkMsg
	if len(b) == 0 || b[0] != msgGlobalChunk {
		return m, chunkPayload{}, fmt.Errorf("simnet: expected global chunk, got %s", describeTag(b))
	}
	b, err := readInts(b[1:], &m.Round, &m.Offset, &m.Total, &m.CtrlLen, &m.Budget, &m.Chunk)
	if err != nil {
		return m, chunkPayload{}, err
	}
	if len(b) < 1 {
		return m, chunkPayload{}, fmt.Errorf("simnet: truncated chunk flags")
	}
	var p chunkPayload
	if m.Last, p, err = readChunkPayload(b[0], b[1:]); err != nil {
		return m, chunkPayload{}, err
	}
	m.Codec = p.codec
	return m, p, nil
}

// describeTag names a frame's tag for "expected X, got Y" errors.
func describeTag(b []byte) string {
	if len(b) == 0 {
		return "an empty message"
	}
	return fmt.Sprintf("message tag %d", b[0])
}
