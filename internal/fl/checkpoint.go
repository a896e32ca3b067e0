package fl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/niid-bench/niidbench/internal/rng"
)

// crcTable is the Castagnoli polynomial used by the snapshot trailer;
// it has hardware support on amd64/arm64, so the integrity check is
// effectively free next to the fsync.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptSnapshotError reports a snapshot file that failed its integrity
// checks — torn write, bit flip, truncation, or a file that
// was never a snapshot at all. It is a typed error so operators (and the
// fedserver CLI) can distinguish "refuse to resume from garbage" from
// "no snapshot yet".
type CorruptSnapshotError struct {
	Reason string
}

func (e *CorruptSnapshotError) Error() string {
	return "fl: corrupt snapshot: " + e.Reason
}

// SnapshotMismatchError reports a snapshot whose config fingerprint does
// not match the run trying to resume from it: resuming would silently
// change the math mid-run, so the engine refuses instead.
type SnapshotMismatchError struct {
	Want, Got uint64
}

func (e *SnapshotMismatchError) Error() string {
	return fmt.Sprintf("fl: snapshot config fingerprint %016x does not match run config %016x; refusing to resume a different experiment", e.Got, e.Want)
}

// atomicWriteFile writes data to path crash-safely: the bytes land in a
// temp file in the same directory, are fsynced, and only then renamed
// over the final path, so a crash at any point leaves either the old
// complete file or the new complete file — never a torn one. The
// directory is fsynced after the rename so the new name itself is
// durable.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		// Best-effort: some filesystems reject directory fsync.
		d.Sync()
		d.Close()
	}
	return nil
}

// SetInitialState overrides the server's global state before training
// starts (seeding from a model file). The length must match.
func (s *Simulation) SetInitialState(state []float64) error {
	return s.engine.SetInitialState(state)
}

// SnapshotFileName is the well-known file name a federation snapshot is
// written under inside a checkpoint directory.
const SnapshotFileName = "federation.snap"

// snapshotMagic identifies a federation snapshot file.
var snapshotMagic = [8]byte{'N', 'I', 'I', 'D', 'B', 'F', 'S', '1'}

// snapshotVersion is the encoding version stamped into every snapshot.
const snapshotVersion = 1

// FederationSnapshot is everything a server needs to resume a federated
// run exactly where it stopped: the global model, every piece of
// algorithm state the server owns (SCAFFOLD c, FedDyn h, FedOpt
// optimizer state), the sampler RNG position, the accumulated metrics
// history, and — for transports with rejoin — the per-party control sums
// used to resync redialing parties. Round counts *completed* rounds:
// a snapshot with Round == r resumes training at round r.
//
// It is also the one on-disk format: a model file (-save-model,
// niidbench.SaveModel) is a snapshot carrying only State. Its zero
// ConfigFingerprint makes Engine.Restore refuse it with a
// *SnapshotMismatchError — a bare model cannot resume a run, it can only
// seed one (SetInitialState) — while any full snapshot can seed a run from
// its State.
type FederationSnapshot struct {
	// ConfigFingerprint hashes the math-relevant config fields; resume
	// refuses a snapshot whose fingerprint differs from the run's.
	ConfigFingerprint uint64
	// Round is the number of fully completed rounds.
	Round int
	// NumParties and ParamLen pin the federation shape.
	NumParties int
	ParamLen   int

	// Model and server algorithm state.
	State    []float64
	Control  []float64 // SCAFFOLD server c (nil otherwise)
	DynH     []float64 // FedDyn server h (nil otherwise)
	Velocity []float64 // FedAvgM velocity (nil until first momentum step)
	AdamM    []float64 // FedAdam first moment (nil until first Adam step)
	AdamV    []float64 // FedAdam second moment
	AdamT    int       // FedAdam step counter

	// Sampler is the engine's party-sampling RNG position after Round
	// completed rounds.
	Sampler rng.State

	// Accumulated run results, so the resumed run's Result is identical
	// to the uninterrupted run's.
	Curve          []RoundMetrics
	BestAccuracy   float64
	TotalCommBytes int64
	ComputeTime    time.Duration

	// PartyControl holds, per party ID, the transport's telescoped sum of
	// SCAFFOLD control deltas — what ResyncMsg replays to a rejoining
	// party that lost its local c_i. Nil entries mean "never trained" or
	// "not SCAFFOLD". Only transports with rejoin populate this.
	PartyControl [][]float64
}

// ConfigFingerprint hashes the math-relevant fields of a config (FNV-1a
// over the normalized values), so a resume against a config that would
// change the arithmetic — different algorithm, LR, seed, sampling — is
// refused, while transport-only knobs (quorum waits, parallelism, and the
// chunk size under a lossless codec) stay free to change across restarts.
func ConfigFingerprint(cfg Config) uint64 {
	if n, err := cfg.Normalize(); err == nil {
		cfg = n
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // terminator so "ab","c" != "a","bc"
		h *= prime64
	}
	mixF := func(f float64) { mix(math.Float64bits(f)) }
	mixB := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mixStr(string(cfg.Algorithm))
	mix(uint64(cfg.Rounds))
	mix(uint64(cfg.LocalEpochs))
	mix(uint64(cfg.BatchSize))
	mixF(cfg.LR)
	mixF(cfg.Momentum)
	mixF(cfg.Mu)
	mixF(cfg.SampleFraction)
	mix(uint64(cfg.Variant))
	mixF(cfg.ServerLR)
	mix(cfg.Seed)
	mix(uint64(cfg.EvalEvery))
	mixB(cfg.KeepBNStatsLocal)
	mixB(cfg.Unweighted)
	mixF(cfg.Alpha)
	mixF(cfg.MoonMu)
	mixF(moonTemp)
	mixStr(string(cfg.ServerOptimizer))
	mixF(serverMomentumBeta)
	mixStr(string(cfg.Sampling))
	mixF(cfg.DPClip)
	mixF(cfg.DPNoise)
	mixF(cfg.CompressTopK)
	mix(uint64(cfg.DType))
	mix(uint64(cfg.AsyncBuffer))
	mixF(stalenessExponent)
	// The wire codec is math-relevant — quantization is lossy, so a run
	// resumed under a different codec would diverge — and the async fair
	// share changes which folds count.
	mixStr(string(cfg.Codec))
	mix(asyncFairShare)
	if cfg.Codec == CodecInt8 || cfg.Codec == CodecInt4 {
		// One scale per frame: under an integer codec the frame size is
		// the quantization granularity, so it changes the arithmetic.
		mix(uint64(cfg.ChunkSize))
	}
	return h
}

// --- snapshot encoding ---

func snapU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func snapU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func snapF64(dst []byte, v float64) []byte {
	return snapU64(dst, math.Float64bits(v))
}

// snapVec encodes a float vector with a presence byte, so nil (no such
// state) and empty-but-present round-trip distinctly.
func snapVec(dst []byte, v []float64) []byte {
	if v == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = snapU64(dst, uint64(len(v)))
	for _, f := range v {
		dst = snapF64(dst, f)
	}
	return dst
}

func snapInts(dst []byte, v []int) []byte {
	dst = snapU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = snapU32(dst, uint32(x))
	}
	return dst
}

// EncodeSnapshot serializes a snapshot: versioned header, config
// fingerprint, payload, CRC-32C trailer over everything preceding it.
func EncodeSnapshot(snap *FederationSnapshot) []byte {
	b := make([]byte, 0, snapshotSizeHint(snap))
	b = append(b, snapshotMagic[:]...)
	b = append(b, snapshotVersion)
	b = snapU64(b, snap.ConfigFingerprint)
	b = snapU32(b, uint32(snap.Round))
	b = snapU32(b, uint32(snap.NumParties))
	b = snapU32(b, uint32(snap.ParamLen))
	b = snapU32(b, uint32(snap.AdamT))
	for _, s := range snap.Sampler.S {
		b = snapU64(b, s)
	}
	if snap.Sampler.HasSpare {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = snapF64(b, snap.Sampler.Spare)
	b = snapF64(b, snap.BestAccuracy)
	b = snapU64(b, uint64(snap.TotalCommBytes))
	b = snapU64(b, uint64(snap.ComputeTime))
	b = snapVec(b, snap.State)
	b = snapVec(b, snap.Control)
	b = snapVec(b, snap.DynH)
	b = snapVec(b, snap.Velocity)
	b = snapVec(b, snap.AdamM)
	b = snapVec(b, snap.AdamV)
	if snap.PartyControl == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = snapU32(b, uint32(len(snap.PartyControl)))
		for _, c := range snap.PartyControl {
			b = snapVec(b, c)
		}
	}
	b = snapU32(b, uint32(len(snap.Curve)))
	for i := range snap.Curve {
		m := &snap.Curve[i]
		b = snapU32(b, uint32(m.Round))
		b = snapF64(b, m.TestAccuracy)
		b = snapF64(b, m.TrainLoss)
		b = snapU64(b, uint64(m.CommBytes))
		b = snapU64(b, uint64(m.Duration))
		b = snapInts(b, m.Sampled)
		b = snapInts(b, m.Dropped)
		if m.Quorum == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = snapU32(b, uint32(m.Quorum.Round))
			b = snapU32(b, uint32(m.Quorum.Live))
			b = snapU32(b, uint32(m.Quorum.Min))
			b = snapU32(b, uint32(m.Quorum.Attempts))
		}
	}
	return snapU32(b, crc32.Checksum(b, crcTable))
}

func snapshotSizeHint(snap *FederationSnapshot) int {
	n := 128 + 8*(len(snap.State)+len(snap.Control)+len(snap.DynH)+
		len(snap.Velocity)+len(snap.AdamM)+len(snap.AdamV))
	for _, c := range snap.PartyControl {
		n += 16 + 8*len(c)
	}
	n += len(snap.Curve) * 96
	return n
}

// snapReader walks an already-CRC-verified snapshot payload, turning any
// truncation or over-length declaration into a CorruptSnapshotError.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(reason string) {
	if r.err == nil {
		r.err = &CorruptSnapshotError{Reason: reason}
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail(fmt.Sprintf("truncated at offset %d (need %d bytes)", r.off, n))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// vec bounds every declared length by the payload bytes actually present
// before allocating, so a hostile header cannot force an allocation larger
// than the file that carries it.
func (r *snapReader) vec() []float64 {
	if r.u8() == 0 {
		return nil
	}
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off)/8 {
		r.fail(fmt.Sprintf("vector of %d values exceeds remaining payload", n))
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.f64()
	}
	return v
}

func (r *snapReader) ints() []int {
	n := r.u32()
	if r.err != nil || n == 0 {
		// Empty decodes as nil, matching the engine's "nil on clean
		// rounds" convention so snapshots round-trip DeepEqual.
		return nil
	}
	if int(n)*4 > len(r.b)-r.off {
		r.fail(fmt.Sprintf("int list of %d values exceeds remaining payload", n))
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(r.u32())
	}
	return v
}

// DecodeSnapshot parses and verifies a snapshot encoded by
// EncodeSnapshot. Any integrity failure — bad magic, unsupported
// version, CRC mismatch, truncation, over-length field — returns a
// *CorruptSnapshotError; the caller never sees partially-restored state.
func DecodeSnapshot(b []byte) (*FederationSnapshot, error) {
	if len(b) < len(snapshotMagic)+1+4 {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("file too short (%d bytes)", len(b))}
	}
	if !bytes.Equal(b[:len(snapshotMagic)], snapshotMagic[:]) {
		return nil, &CorruptSnapshotError{Reason: "bad magic (not a federation snapshot)"}
	}
	payload, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.Checksum(payload, crcTable); got != want {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("CRC mismatch (stored %08x, computed %08x): torn or corrupted file", got, want)}
	}
	r := &snapReader{b: payload, off: len(snapshotMagic)}
	if v := r.u8(); v != snapshotVersion {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("unsupported snapshot version %d (this build reads v%d)", v, snapshotVersion)}
	}
	snap := &FederationSnapshot{}
	snap.ConfigFingerprint = r.u64()
	snap.Round = int(r.u32())
	snap.NumParties = int(r.u32())
	snap.ParamLen = int(r.u32())
	snap.AdamT = int(r.u32())
	for i := range snap.Sampler.S {
		snap.Sampler.S[i] = r.u64()
	}
	snap.Sampler.HasSpare = r.u8() != 0
	snap.Sampler.Spare = r.f64()
	snap.BestAccuracy = r.f64()
	snap.TotalCommBytes = int64(r.u64())
	snap.ComputeTime = time.Duration(r.u64())
	snap.State = r.vec()
	snap.Control = r.vec()
	snap.DynH = r.vec()
	snap.Velocity = r.vec()
	snap.AdamM = r.vec()
	snap.AdamV = r.vec()
	if r.u8() != 0 {
		n := r.u32()
		if r.err == nil && int(n) > len(r.b)-r.off {
			r.fail(fmt.Sprintf("party-control table of %d entries exceeds remaining payload", n))
		}
		if r.err == nil {
			snap.PartyControl = make([][]float64, n)
			for i := range snap.PartyControl {
				snap.PartyControl[i] = r.vec()
				if r.err != nil {
					break
				}
			}
		}
	}
	nCurve := r.u32()
	if r.err == nil && int(nCurve)*42 > len(r.b)-r.off {
		// 42 bytes is the minimum encoded RoundMetrics.
		r.fail(fmt.Sprintf("curve of %d rounds exceeds remaining payload", nCurve))
	}
	if r.err == nil && nCurve > 0 {
		snap.Curve = make([]RoundMetrics, nCurve)
		for i := range snap.Curve {
			m := &snap.Curve[i]
			m.Round = int(r.u32())
			m.TestAccuracy = r.f64()
			m.TrainLoss = r.f64()
			m.CommBytes = int64(r.u64())
			m.Duration = time.Duration(r.u64())
			m.Sampled = r.ints()
			m.Dropped = r.ints()
			if r.u8() != 0 {
				m.Quorum = &QuorumError{
					Round:    int(r.u32()),
					Live:     int(r.u32()),
					Min:      int(r.u32()),
					Attempts: int(r.u32()),
				}
			}
			if r.err != nil {
				break
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("%d trailing bytes after payload", len(r.b)-r.off)}
	}
	if snap.Round < 0 || snap.NumParties < 0 || snap.ParamLen < 0 {
		return nil, &CorruptSnapshotError{Reason: "negative shape field"}
	}
	return snap, nil
}

// WriteSnapshotFile writes a snapshot to path crash-safely: encode, tmp
// file in the same directory, fsync, atomic rename, directory fsync. A
// crash at any point leaves the previous snapshot (or nothing) — never a
// torn file.
func WriteSnapshotFile(path string, snap *FederationSnapshot) error {
	return atomicWriteFile(path, EncodeSnapshot(snap))
}

// LoadSnapshotFile reads and verifies a snapshot from path.
func LoadSnapshotFile(path string) (*FederationSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(b)
}

func cloneVec(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append([]float64(nil), v...)
}

// snapshotInto fills the model/optimizer portion of snap from the
// server's current state (deep copies, so the snapshot is stable while
// the next round runs).
func (s *Server) snapshotInto(snap *FederationSnapshot) {
	snap.NumParties = s.numParties
	snap.ParamLen = s.paramLen
	snap.AdamT = s.adamT
	snap.State = cloneVec(s.state)
	snap.Control = cloneVec(s.control)
	snap.DynH = cloneVec(s.dynH)
	snap.Velocity = cloneVec(s.velocity)
	snap.AdamM = cloneVec(s.adamM)
	snap.AdamV = cloneVec(s.adamV)
}

// restoreSnapshot overwrites the server's model and algorithm state from
// a snapshot, validating every shape against the freshly-built server so
// a snapshot from a different model or federation cannot be spliced in.
func (s *Server) restoreSnapshot(snap *FederationSnapshot) error {
	if len(snap.State) != len(s.state) {
		return fmt.Errorf("fl: snapshot state has %d values, model needs %d", len(snap.State), len(s.state))
	}
	if snap.ParamLen != s.paramLen {
		return fmt.Errorf("fl: snapshot param length %d, model has %d", snap.ParamLen, s.paramLen)
	}
	if snap.NumParties != s.numParties {
		return fmt.Errorf("fl: snapshot is for %d parties, federation has %d", snap.NumParties, s.numParties)
	}
	if (s.control == nil) != (snap.Control == nil) || len(snap.Control) != len(s.control) {
		return fmt.Errorf("fl: snapshot SCAFFOLD control shape %d does not match server %d", len(snap.Control), len(s.control))
	}
	if (s.dynH == nil) != (snap.DynH == nil) || len(snap.DynH) != len(s.dynH) {
		return fmt.Errorf("fl: snapshot FedDyn state shape %d does not match server %d", len(snap.DynH), len(s.dynH))
	}
	for _, v := range [][]float64{snap.Velocity, snap.AdamM, snap.AdamV} {
		if v != nil && len(v) != len(s.state) {
			return fmt.Errorf("fl: snapshot optimizer state has %d values, model needs %d", len(v), len(s.state))
		}
	}
	if (snap.AdamM == nil) != (snap.AdamV == nil) {
		return fmt.Errorf("fl: snapshot Adam moments are torn (m %d values, v %d)", len(snap.AdamM), len(snap.AdamV))
	}
	copy(s.state, snap.State)
	if s.control != nil {
		copy(s.control, snap.Control)
	}
	if s.dynH != nil {
		copy(s.dynH, snap.DynH)
	}
	s.velocity = cloneVec(snap.Velocity)
	s.adamM = cloneVec(snap.AdamM)
	s.adamV = cloneVec(snap.AdamV)
	s.adamT = snap.AdamT
	return nil
}
