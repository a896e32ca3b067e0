package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// fullSnapshot builds a snapshot with every field populated (including the
// optional ones), so codec tests exercise every branch of the encoder.
func fullSnapshot() *FederationSnapshot {
	return &FederationSnapshot{
		ConfigFingerprint: 0xDEADBEEFCAFEF00D,
		Round:             3,
		NumParties:        4,
		ParamLen:          5,
		State:             []float64{1.5, -2.25, 0, math.Pi, math.Inf(1), -0.0},
		Control:           []float64{0.5, -0.5, 0.25, 0, 1},
		DynH:              []float64{},
		Velocity:          []float64{9, 8, 7, 6, 5, 4},
		AdamM:             []float64{1, 2, 3, 4, 5, 6},
		AdamV:             []float64{6, 5, 4, 3, 2, 1},
		AdamT:             17,
		Sampler:           rng.State{S: [4]uint64{1, 2, 3, ^uint64(0)}, HasSpare: true, Spare: -1.25},
		Curve: []RoundMetrics{
			{Round: 0, TestAccuracy: 0.5, TrainLoss: 1.25, CommBytes: 4096,
				Duration: 3 * time.Millisecond, Sampled: []int{0, 2}},
			{Round: 1, TestAccuracy: -1, TrainLoss: 1.1, CommBytes: 2048,
				Duration: time.Millisecond, Sampled: []int{1, 3}, Dropped: []int{3},
				Quorum: &QuorumError{Round: 1, Live: 2, Min: 2, Attempts: 5}},
			{Round: 2, TestAccuracy: 0.6, TrainLoss: 0.9, CommBytes: 4096,
				Duration: 2 * time.Millisecond, Sampled: []int{0, 1, 2, 3}},
		},
		BestAccuracy:   0.6,
		TotalCommBytes: 10240,
		ComputeTime:    6 * time.Millisecond,
		PartyControl:   [][]float64{{1, 2, 3, 4, 5}, nil, {}, {5, 4, 3, 2, 1}},
	}
}

// TestSnapshotBytesPin freezes the snapshot v1 encoding: digest and length
// of a fully populated snapshot and of a state-only one (the model-file
// use). The literals were cut at the commit before the model-file codec
// was folded into this one and must never change while snapshotVersion
// stays 1 — a federation.snap written by any earlier build keeps loading.
func TestSnapshotBytesPin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		snap   *FederationSnapshot
		length int
		sha256 string
	}{
		{"full", fullSnapshot(), 692,
			"5c45e028ff952aadb24470affb8be6fe6a7ecab717dd8b0ddff22bee1af1cc33"},
		{"state-only", &FederationSnapshot{State: []float64{1.5, -2.25, 0, math.Pi}}, 153,
			"0157fb73440e49b0cfaeedceed91833c3be3d48f17426c28bd954aa09a767e24"},
	} {
		b := EncodeSnapshot(tc.snap)
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); len(b) != tc.length || got != tc.sha256 {
			t.Fatalf("%s snapshot encoding drifted: %d bytes sha256 %s, want %d bytes %s",
				tc.name, len(b), got, tc.length, tc.sha256)
		}
	}
}

// stateCountOffset is where the State vector's u64 length sits in an
// encoded snapshot: after the 98-byte fixed header (magic, version,
// fingerprint, four shape words, sampler, three accumulators) and the
// vector's presence byte.
const stateCountOffset = 98 + 1

// reseal recomputes b's CRC trailer in place, so a test can forge a field
// and still get past the integrity check to the parser.
func reseal(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
}

// allocatedBy returns the bytes fn allocated (cumulative, so a transient
// giant allocation is seen even if it was collected before fn returned).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	in := fullSnapshot()
	b := EncodeSnapshot(in)
	out, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}

	// A minimal snapshot (only nil-able fields absent) round-trips too, and
	// nil-ness is preserved — nil Control must not come back as empty.
	min := &FederationSnapshot{State: []float64{1}, NumParties: 1, ParamLen: 1}
	out, err = DecodeSnapshot(EncodeSnapshot(min))
	if err != nil {
		t.Fatal(err)
	}
	if out.Control != nil || out.DynH != nil || out.Velocity != nil ||
		out.AdamM != nil || out.AdamV != nil || out.PartyControl != nil {
		t.Fatalf("nil fields resurrected: %+v", out)
	}
}

// TestSnapshotCodecAllAlgorithms round-trips an engine-captured snapshot
// for each of the six algorithms, so algorithm-specific server state
// (SCAFFOLD c, FedDyn h) survives the codec.
func TestSnapshotCodecAllAlgorithms(t *testing.T) {
	for _, alg := range ExtendedAlgorithms() {
		cfg := quickCfg(alg)
		cfg.Rounds = 2
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		snap := sim.engine.Snapshot(cfg.Rounds, nil, 0.5, 1024, time.Millisecond)
		out, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !reflect.DeepEqual(snap, out) {
			t.Fatalf("%s: engine snapshot did not survive the codec", alg)
		}
		if alg == Scaffold && out.Control == nil {
			t.Fatalf("scaffold snapshot lost the server control variate")
		}
		if alg == FedDyn && out.DynH == nil {
			t.Fatalf("feddyn snapshot lost the server h state")
		}
	}
}

// TestSnapshotRejectsCorruption sweeps every truncation point and every
// single-byte flip of a valid snapshot: all of them must be rejected with
// a typed *CorruptSnapshotError — never decoded, never a panic.
func TestSnapshotRejectsCorruption(t *testing.T) {
	b := EncodeSnapshot(fullSnapshot())
	for cut := 0; cut < len(b); cut++ {
		_, err := DecodeSnapshot(b[:cut])
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d/%d: %v", cut, len(b), err)
		}
	}
	for i := 0; i < len(b); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), b...)
			mut[i] ^= bit
			_, err := DecodeSnapshot(mut)
			var ce *CorruptSnapshotError
			if !errors.As(err, &ce) {
				t.Fatalf("bit flip at byte %d (mask %02x) decoded: %v", i, bit, err)
			}
		}
	}
	if _, err := DecodeSnapshot([]byte("definitely not a snapshot")); err == nil {
		t.Fatal("garbage decoded")
	}

	// Over-length declarations are caught before allocation even when the
	// CRC is recomputed to match. The base snapshot is laid out so every
	// count field sits at a known offset: a 2-value State, five absent
	// vectors, a one-entry party-control table holding an absent vector,
	// and a one-round curve.
	base := EncodeSnapshot(&FederationSnapshot{State: []float64{1, 2},
		PartyControl: [][]float64{nil}, Curve: []RoundMetrics{{}}})
	const (
		partyCountOffset = stateCountOffset + 8 + 2*8 + 5 + 1 // past State, the absent vectors, the presence byte
		curveCountOffset = partyCountOffset + 4 + 1           // past the table's one absent entry
		sampledOffset    = curveCountOffset + 4 + 4 + 4*8     // past the round's fixed fields
	)
	for _, tc := range []struct {
		name   string
		offset int
		value  uint64
		wide   bool
	}{
		{"state vector", stateCountOffset, 1 << 28, true},
		{"state vector (overflowing)", stateCountOffset, 1 << 62, true},
		{"party-control table", partyCountOffset, 1 << 31, false},
		{"curve", curveCountOffset, 1 << 31, false},
		{"sampled list", sampledOffset, 1 << 31, false},
	} {
		mut := append([]byte(nil), base...)
		if tc.wide {
			binary.LittleEndian.PutUint64(mut[tc.offset:], tc.value)
		} else {
			binary.LittleEndian.PutUint32(mut[tc.offset:], uint32(tc.value))
		}
		reseal(mut)
		var err error
		grew := allocatedBy(func() { _, err = DecodeSnapshot(mut) })
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("over-length %s declaration decoded: %v", tc.name, err)
		}
		if grew >= 1<<20 {
			t.Fatalf("over-length %s declaration allocated %d bytes before being refused", tc.name, grew)
		}
	}
	// The forgery harness itself must be sound: resealing an untouched
	// copy still decodes.
	mut := append([]byte(nil), base...)
	reseal(mut)
	if _, err := DecodeSnapshot(mut); err != nil {
		t.Fatalf("resealed pristine snapshot refused: %v", err)
	}
}

// TestConfigFingerprint pins what the fingerprint covers: math-relevant
// fields change it, transport-only knobs do not.
func TestConfigFingerprint(t *testing.T) {
	base := quickCfg(FedAvg)
	fp := ConfigFingerprint(base)
	for name, mutate := range map[string]func(*Config){
		"algorithm": func(c *Config) { c.Algorithm = Scaffold },
		"lr":        func(c *Config) { c.LR = 0.1 },
		"seed":      func(c *Config) { c.Seed++ },
		"rounds":    func(c *Config) { c.Rounds++ },
		"epochs":    func(c *Config) { c.LocalEpochs++ },
	} {
		c := base
		mutate(&c)
		if ConfigFingerprint(c) == fp {
			t.Fatalf("%s change did not change the fingerprint", name)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"chunk size":  func(c *Config) { c.ChunkSize = 4096 },
		"parallelism": func(c *Config) { c.Parallelism = 4 },
		"quorum":      func(c *Config) { c.MinParties = 2; c.QuorumWait = time.Millisecond },
	} {
		c := base
		mutate(&c)
		if ConfigFingerprint(c) != fp {
			t.Fatalf("transport knob %q changed the fingerprint", name)
		}
	}
	// The frame is the quantization unit under the integer codecs (one
	// scale per frame), so there — and only there — the chunk size is
	// math: f32 narrows per element and f64 is exact at any frame size.
	for codec, chunkIsMath := range map[Codec]bool{CodecF64: false, CodecF32: false, CodecInt8: true, CodecInt4: true} {
		a, b := base, base
		a.Codec, b.Codec = codec, codec
		a.ChunkSize, b.ChunkSize = 4096, 512
		if moved := ConfigFingerprint(a) != ConfigFingerprint(b); moved != chunkIsMath {
			t.Fatalf("codec %s: a chunk-size change moved the fingerprint = %v, want %v", codec, moved, chunkIsMath)
		}
	}
	// The staleness exponent, the async fair share, MOON's temperature and
	// the server momentum coefficient were Config fields once and are
	// constants now; the hash still mixes their values in the same
	// positions, so f64/f32 snapshots written before that still resume. The
	// int8 literal moved once, deliberately, when ChunkSize joined the hash
	// under the integer codecs.
	for _, pin := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{}, 0x3a32cae8dadd59d},
		{Config{Algorithm: Scaffold, AsyncBuffer: 2, Codec: CodecInt8, ChunkSize: 4096, Seed: 7}, 0x996a87640d59bc8f},
	} {
		if got := ConfigFingerprint(pin.cfg); got != pin.want {
			t.Fatalf("ConfigFingerprint(%+v) = %#x, want %#x", pin.cfg, got, pin.want)
		}
	}
}

// TestResumeAcrossChunkSize: a restart may change -chunk freely under the
// lossless and per-element codecs, but under int8/int4 — where the frame
// is the quantization unit — a different chunk size is a different
// experiment and the snapshot is refused.
func TestResumeAcrossChunkSize(t *testing.T) {
	for codec, refused := range map[Codec]bool{CodecF64: false, CodecF32: false, CodecInt8: true, CodecInt4: true} {
		cfg := quickCfg(FedAvg)
		cfg.Codec, cfg.ChunkSize = codec, 4096
		before, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		snap := before.engine.Snapshot(1, nil, 0, 0, 0)
		cfg.ChunkSize = 512
		after, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		err := after.engine.Restore(snap)
		var me *SnapshotMismatchError
		if refused != errors.As(err, &me) || (!refused && err != nil) {
			t.Fatalf("codec %s, chunk 4096 -> 512: Restore = %v, want refused = %v", codec, err, refused)
		}
	}
}

// TestRestoreRefusesMismatch covers the refusal paths: wrong fingerprint
// (typed *SnapshotMismatchError), out-of-range round, wrong shapes.
func TestRestoreRefusesMismatch(t *testing.T) {
	cfg := quickCfg(FedAvg)
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	snap := sim.engine.Snapshot(1, nil, 0, 0, 0)

	other := snap
	wrong := *other
	wrong.ConfigFingerprint++
	var me *SnapshotMismatchError
	if err := sim.engine.Restore(&wrong); !errors.As(err, &me) {
		t.Fatalf("fingerprint mismatch: %v", err)
	}
	if !strings.Contains(me.Error(), "refusing to resume") {
		t.Fatalf("mismatch error not descriptive: %v", me)
	}

	late := *snap
	late.Round = cfg.Rounds + 1
	if err := sim.engine.Restore(&late); err == nil {
		t.Fatal("out-of-range round accepted")
	}

	short := *snap
	short.State = []float64{1, 2}
	if err := sim.engine.Restore(&short); err == nil {
		t.Fatal("wrong state shape accepted")
	}

	parties := *snap
	parties.NumParties = 99
	if err := sim.engine.Restore(&parties); err == nil {
		t.Fatal("wrong party count accepted")
	}

	// SCAFFOLD snapshot into a FedAvg engine: same model, different
	// algorithm state — the fingerprint already differs, but even a forged
	// fingerprint is caught by the shape check.
	forged := *snap
	forged.Control = make([]float64, len(snap.State))
	if err := sim.engine.Restore(&forged); err == nil {
		t.Fatal("foreign control state accepted")
	}

	if err := sim.engine.Restore(snap); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
}

// TestResumeBitwiseAllAlgorithms is the engine-level crash-restart
// equivalence proof: run a reference federation to completion; run an
// identical one that "crashes" right after checkpointing round k (the
// checkpoint hook aborts the run); then rebuild the server from scratch —
// fresh Simulation — keep the surviving clients (exactly what a real
// restart looks like: the server process died, the party processes kept
// their local state), Restore the snapshot and finish. Every algorithm's
// final state must be bitwise identical to the uninterrupted run.
func TestResumeBitwiseAllAlgorithms(t *testing.T) {
	const crashAfter = 2
	crashErr := errors.New("simulated crash after durable checkpoint")
	for _, alg := range ExtendedAlgorithms() {
		cfg := quickCfg(alg)
		ref, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		want, err := ref.Run()
		if err != nil {
			t.Fatalf("%s reference: %v", alg, err)
		}

		crash, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		var snap *FederationSnapshot
		crash.engine.Checkpoint = func(s *FederationSnapshot) error {
			if s.Round == crashAfter {
				snap = s
				return crashErr
			}
			return nil
		}
		if _, err := crash.Run(); !errors.Is(err, crashErr) {
			t.Fatalf("%s crash run: %v", alg, err)
		}
		if snap == nil {
			t.Fatalf("%s: checkpoint hook never fired at round %d", alg, crashAfter)
		}

		// The snapshot survives the wire format too: resume from the
		// decoded bytes, not the in-memory object.
		snap, err = DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}

		resumed, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		resumed.Clients = crash.Clients // party processes survived the server crash
		if err := resumed.engine.Restore(snap); err != nil {
			t.Fatalf("%s restore: %v", alg, err)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatalf("%s resumed: %v", alg, err)
		}
		if len(got.FinalState) != len(want.FinalState) {
			t.Fatalf("%s: state length %d vs %d", alg, len(got.FinalState), len(want.FinalState))
		}
		for i := range want.FinalState {
			if got.FinalState[i] != want.FinalState[i] {
				t.Fatalf("%s: resumed state diverges at %d: %v != %v",
					alg, i, got.FinalState[i], want.FinalState[i])
			}
		}
		if got.FinalAccuracy != want.FinalAccuracy || got.BestAccuracy != want.BestAccuracy {
			t.Fatalf("%s: accuracy %v/%v, want %v/%v",
				alg, got.FinalAccuracy, got.BestAccuracy, want.FinalAccuracy, want.BestAccuracy)
		}
		if got.TotalCommBytes != want.TotalCommBytes || len(got.Curve) != len(want.Curve) {
			t.Fatalf("%s: accounting diverged (%d bytes/%d rounds, want %d/%d)",
				alg, got.TotalCommBytes, len(got.Curve), want.TotalCommBytes, len(want.Curve))
		}
	}
}

// TestSnapshotFileAtomicity checks the crash-safe write path: the snapshot
// file is replaced atomically (no temp litter) and a bit-flipped file on
// disk is refused on load.
func TestSnapshotFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotFileName)
	snap := fullSnapshot()
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot: the write goes through a temp file
	// and rename, leaving exactly one file behind.
	snap.Round = 7
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != SnapshotFileName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir litter: %v", names)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 7 {
		t.Fatalf("loaded round %d, want 7", got.Round)
	}

	// Flip one payload byte on disk: load must refuse with the typed error.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSnapshotFile(path)
	var ce *CorruptSnapshotError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupted snapshot loaded: %v", err)
	}
}
