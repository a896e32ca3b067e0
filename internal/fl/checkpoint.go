package fl

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"github.com/niid-bench/niidbench/internal/le"
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
	// Each value is 8 little-endian bytes; each string ends in 0xff, so
	// "ab","c" and "a","bc" hash apart.
	b := append([]byte(cfg.Algorithm), 0xff)
	b = le.AppendU64(b, uint64(cfg.Rounds))
	b = le.AppendU64(b, uint64(cfg.LocalEpochs))
	b = le.AppendU64(b, uint64(cfg.BatchSize))
	b = le.AppendF64(b, cfg.LR)
	b = le.AppendF64(b, cfg.Momentum)
	b = le.AppendF64(b, cfg.Mu)
	b = le.AppendF64(b, cfg.SampleFraction)
	b = le.AppendU64(b, uint64(cfg.Variant))
	b = le.AppendF64(b, cfg.ServerLR)
	b = le.AppendU64(b, cfg.Seed)
	b = le.AppendU64(b, uint64(cfg.EvalEvery))
	b = le.AppendU64(b, bit(cfg.KeepBNStatsLocal))
	b = le.AppendU64(b, bit(cfg.Unweighted))
	b = le.AppendF64(b, cfg.Alpha)
	b = le.AppendF64(b, cfg.MoonMu)
	b = le.AppendF64(b, moonTemp)
	b = append(append(b, cfg.ServerOptimizer...), 0xff)
	b = le.AppendF64(b, serverMomentumBeta)
	b = append(append(b, cfg.Sampling...), 0xff)
	b = le.AppendF64(b, cfg.DPClip)
	b = le.AppendF64(b, cfg.DPNoise)
	b = le.AppendF64(b, cfg.CompressTopK)
	b = le.AppendU64(b, uint64(cfg.DType))
	b = le.AppendU64(b, uint64(cfg.AsyncBuffer))
	b = le.AppendF64(b, stalenessExponent)
	// The wire codec is math-relevant — quantization is lossy, so a run
	// resumed under a different codec would diverge — and the async fair
	// share changes which folds count.
	b = append(append(b, cfg.Codec...), 0xff)
	b = le.AppendU64(b, asyncFairShare)
	if cfg.Codec == CodecInt8 || cfg.Codec == CodecInt4 {
		// One scale per frame: under an integer codec the frame size is
		// the quantization granularity, so it changes the arithmetic.
		b = le.AppendU64(b, uint64(cfg.ChunkSize))
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// bit is a flag as the fingerprint hashes it.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- snapshot encoding ---

// snapVec encodes a float vector with a presence byte, so nil (no such
// state) and empty-but-present round-trip distinctly.
func snapVec(dst []byte, v []float64) []byte {
	if v == nil {
		return append(dst, 0)
	}
	return le.AppendF64s(le.AppendU64(append(dst, 1), uint64(len(v))), v)
}

// readVec decodes what snapVec encodes.
func readVec(r *le.Reader) []float64 {
	if r.U8() == 0 {
		return nil
	}
	return r.F64s(r.U64())
}

func snapInts(dst []byte, v []int) []byte {
	dst = le.AppendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = le.AppendU32(dst, uint32(x))
	}
	return dst
}

// readInts decodes what snapInts encodes. Empty decodes as nil, matching
// the engine's "nil on clean rounds" convention so snapshots round-trip
// DeepEqual.
func readInts(r *le.Reader) []int {
	n := r.Count(uint64(r.U32()), 4)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(r.U32())
	}
	return v
}

// EncodeSnapshot serializes a snapshot: versioned header, config
// fingerprint, payload, CRC-32C trailer over everything preceding it.
func EncodeSnapshot(snap *FederationSnapshot) []byte {
	b := make([]byte, 0, snapshotSizeHint(snap))
	b = append(b, snapshotMagic[:]...)
	b = append(b, snapshotVersion)
	b = le.AppendU64(b, snap.ConfigFingerprint)
	b = le.AppendU32(b, uint32(snap.Round))
	b = le.AppendU32(b, uint32(snap.NumParties))
	b = le.AppendU32(b, uint32(snap.ParamLen))
	b = le.AppendU32(b, uint32(snap.AdamT))
	for _, s := range snap.Sampler.S {
		b = le.AppendU64(b, s)
	}
	if snap.Sampler.HasSpare {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = le.AppendF64(b, snap.Sampler.Spare)
	b = le.AppendF64(b, snap.BestAccuracy)
	b = le.AppendU64(b, uint64(snap.TotalCommBytes))
	b = le.AppendU64(b, uint64(snap.ComputeTime))
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
		b = le.AppendU32(b, uint32(len(snap.PartyControl)))
		for _, c := range snap.PartyControl {
			b = snapVec(b, c)
		}
	}
	b = le.AppendU32(b, uint32(len(snap.Curve)))
	for i := range snap.Curve {
		m := &snap.Curve[i]
		b = le.AppendU32(b, uint32(m.Round))
		b = le.AppendF64(b, m.TestAccuracy)
		b = le.AppendF64(b, m.TrainLoss)
		b = le.AppendU64(b, uint64(m.CommBytes))
		b = le.AppendU64(b, uint64(m.Duration))
		b = snapInts(b, m.Sampled)
		b = snapInts(b, m.Dropped)
		if m.Quorum == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = le.AppendU32(b, uint32(m.Quorum.Round))
			b = le.AppendU32(b, uint32(m.Quorum.Live))
			b = le.AppendU32(b, uint32(m.Quorum.Min))
			b = le.AppendU32(b, uint32(m.Quorum.Attempts))
		}
	}
	return le.AppendU32(b, crc32.Checksum(b, crcTable))
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
	if got, want := le.NewReader(trailer).U32(), crc32.Checksum(payload, crcTable); got != want {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("CRC mismatch (stored %08x, computed %08x): torn or corrupted file", got, want)}
	}
	r := le.NewReader(payload)
	r.Bytes(len(snapshotMagic)) // checked above
	if v := r.U8(); v != snapshotVersion {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("unsupported snapshot version %d (this build reads v%d)", v, snapshotVersion)}
	}
	snap := &FederationSnapshot{}
	snap.ConfigFingerprint = r.U64()
	snap.Round = int(r.U32())
	snap.NumParties = int(r.U32())
	snap.ParamLen = int(r.U32())
	snap.AdamT = int(r.U32())
	for i := range snap.Sampler.S {
		snap.Sampler.S[i] = r.U64()
	}
	snap.Sampler.HasSpare = r.U8() != 0
	snap.Sampler.Spare = r.F64()
	snap.BestAccuracy = r.F64()
	snap.TotalCommBytes = int64(r.U64())
	snap.ComputeTime = time.Duration(r.U64())
	snap.State = readVec(r)
	snap.Control = readVec(r)
	snap.DynH = readVec(r)
	snap.Velocity = readVec(r)
	snap.AdamM = readVec(r)
	snap.AdamV = readVec(r)
	if r.U8() != 0 {
		// Every entry takes at least its presence byte.
		if n := r.Count(uint64(r.U32()), 1); r.Err() == nil {
			snap.PartyControl = make([][]float64, n)
			for i := range snap.PartyControl {
				snap.PartyControl[i] = readVec(r)
			}
		}
	}
	// 42 bytes is the minimum encoded RoundMetrics.
	if n := r.Count(uint64(r.U32()), 42); n > 0 {
		snap.Curve = make([]RoundMetrics, n)
		for i := range snap.Curve {
			m := &snap.Curve[i]
			m.Round = int(r.U32())
			m.TestAccuracy = r.F64()
			m.TrainLoss = r.F64()
			m.CommBytes = int64(r.U64())
			m.Duration = time.Duration(r.U64())
			m.Sampled = readInts(r)
			m.Dropped = readInts(r)
			if r.U8() != 0 {
				m.Quorum = &QuorumError{
					Round:    int(r.U32()),
					Live:     int(r.U32()),
					Min:      int(r.U32()),
					Attempts: int(r.U32()),
				}
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, &CorruptSnapshotError{Reason: err.Error()}
	}
	if r.Len() != 0 {
		return nil, &CorruptSnapshotError{Reason: fmt.Sprintf("%d trailing bytes after payload", r.Len())}
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

// snapshotInto points the model/optimizer portion of snap at the
// server's own vectors: no copy, so the snapshot is valid only until the
// server next changes (see Engine.Snapshot).
func (s *Server) snapshotInto(snap *FederationSnapshot) {
	snap.NumParties = s.numParties
	snap.ParamLen = s.paramLen
	snap.AdamT = s.adamT
	snap.State = s.state
	snap.Control = s.control
	snap.DynH = s.dynH
	snap.Velocity = s.velocity
	snap.AdamM = s.adamM
	snap.AdamV = s.adamV
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
