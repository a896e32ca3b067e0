package fl

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
	// Over-length vector declarations are caught before allocation even
	// when the CRC is recomputed to match.
	if _, err := DecodeSnapshot([]byte("definitely not a snapshot")); err == nil {
		t.Fatal("garbage decoded")
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
		"quorum":      func(c *Config) { c.MinParties = 2; c.QuorumRetries = 7; c.QuorumRetryWait = time.Millisecond },
	} {
		c := base
		mutate(&c)
		if ConfigFingerprint(c) != fp {
			t.Fatalf("transport knob %q changed the fingerprint", name)
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

// TestCheckpointCadence pins which rounds fire the hook: every round at
// cadence 1 (and <= 0), the cadence multiples plus the final round
// otherwise.
func TestCheckpointCadence(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  []int
	}{
		{0, []int{1, 2, 3, 4}},
		{1, []int{1, 2, 3, 4}},
		{2, []int{2, 4}},
		{3, []int{3, 4}}, // cadence round plus the mandatory final round
		{9, []int{4}},
	} {
		cfg := quickCfg(FedAvg)
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		var fired []int
		sim.engine.Checkpoint = func(s *FederationSnapshot) error {
			fired = append(fired, s.Round)
			return nil
		}
		sim.engine.CheckpointEvery = tc.every
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fired, tc.want) {
			t.Fatalf("cadence %d fired at %v, want %v", tc.every, fired, tc.want)
		}
	}
}

// TestSnapshotFileAtomicity checks the crash-safe write path: the snapshot
// file is replaced atomically (no temp litter), a bit-flipped file on disk
// is refused on load, and the legacy state checkpoint enjoys the same CRC
// protection.
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

	// Same discipline for the bare state checkpoint.
	statePath := filepath.Join(dir, "model.niidb")
	if err := SaveStateFile(statePath, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	sb[len(sb)-6] ^= 0x01 // inside the payload, before the CRC trailer
	if err := os.WriteFile(statePath, sb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStateFile(statePath); !errors.As(err, &ce) {
		t.Fatalf("bit-flipped state checkpoint loaded: %v", err)
	}
}
