package fl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/niid-bench/niidbench/internal/partition"
)

// A model file is a snapshot carrying only the state section; these tests
// cover that use of the one codec.

func TestModelFileRoundTripProperty(t *testing.T) {
	err := quick.Check(func(state []float64) bool {
		got, err := DecodeSnapshot(EncodeSnapshot(&FederationSnapshot{State: state}))
		if err != nil || len(got.State) != len(state) {
			return false
		}
		for i := range state {
			if got.State[i] != state[i] && !(math.IsNaN(got.State[i]) && math.IsNaN(state[i])) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// legacyModelFile lays out the retired NIIDBv01 model file — magic, value
// count, payload, CRC-32C — declaring count values but carrying only the
// given ones.
func legacyModelFile(count uint64, values ...float64) []byte {
	b := append([]byte("NIIDBv01"), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(b[8:], count)
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func TestModelFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.niidb")
	state := []float64{9, 8, 7}
	if err := WriteSnapshotFile(path, &FederationSnapshot{State: state}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.State) != 3 || got.State[2] != 7 {
		t.Fatalf("got %v", got.State)
	}
	if _, err := LoadSnapshotFile(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	// Junk, and a well-formed file of the retired layout, are both refused
	// as corrupt rather than half-read.
	for name, b := range map[string][]byte{
		"junk":     []byte("junk"),
		"NIIDBv01": legacyModelFile(3, 1, 2, 3),
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptSnapshotError
		if _, err := LoadSnapshotFile(path); !errors.As(err, &ce) {
			t.Fatalf("%s file: %v", name, err)
		}
	}
}

// TestModelFileSeedsButNeverResumes pins the two directions of "a model
// file is a snapshot": Restore refuses a state-only snapshot (its zero
// fingerprint matches no run), while a full snapshot's State seeds a run
// like any model file.
func TestModelFileSeedsButNeverResumes(t *testing.T) {
	cfg := quickCfg(FedAvg)
	cfg.Rounds = 2
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "final.model")
	full := filepath.Join(dir, SnapshotFileName)
	if err := WriteSnapshotFile(model, &FederationSnapshot{State: sim.GlobalState()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(full, sim.engine.Snapshot(cfg.Rounds, nil, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}

	fresh, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	bare, err := LoadSnapshotFile(model)
	if err != nil {
		t.Fatal(err)
	}
	var me *SnapshotMismatchError
	if err := fresh.engine.Restore(bare); !errors.As(err, &me) {
		t.Fatalf("Restore from a model file: %v", err)
	}
	for _, path := range []string{model, full} {
		snap, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetInitialState(snap.State); err != nil {
			t.Fatalf("seeding from %s: %v", filepath.Base(path), err)
		}
		for i, v := range sim.GlobalState() {
			if fresh.GlobalState()[i] != v {
				t.Fatalf("seeding from %s: state[%d] %v, want %v", filepath.Base(path), i, fresh.GlobalState()[i], v)
			}
		}
	}
}

// TestHostileModelHeaderAllocatesNothing is the regression test for the
// -load-model allocation bug: the retired LoadState trusted a 16-byte
// header and allocated 2 GiB before reading a byte of payload. Both the
// literal hostile file of that report and the same 2^28-value declaration
// re-expressed in the snapshot layout (CRC recomputed to match) must be
// refused as corrupt without allocating for the declared length.
func TestHostileModelHeaderAllocatesNothing(t *testing.T) {
	inSnapshot := EncodeSnapshot(&FederationSnapshot{State: []float64{}})
	binary.LittleEndian.PutUint64(inSnapshot[stateCountOffset:], 1<<28)
	reseal(inSnapshot)
	for name, b := range map[string][]byte{
		"NIIDBv01 header": legacyModelFile(1 << 28),
		"snapshot state":  inSnapshot,
	} {
		path := filepath.Join(t.TempDir(), "hostile.model")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		grew := allocatedBy(func() { _, err = LoadSnapshotFile(path) })
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("%s (%d bytes): %v", name, len(b), err)
		}
		if grew >= 1<<20 {
			t.Fatalf("%s (%d bytes): refusing it allocated %d bytes", name, len(b), grew)
		}
	}
}

func TestResumeFromCheckpoint(t *testing.T) {
	// Train, checkpoint, resume in a fresh simulation: the resumed run's
	// first evaluation should match the checkpoint's accuracy.
	cfg := quickCfg(FedAvg)
	cfg.Rounds = 2
	sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	state := append([]float64{}, sim.GlobalState()...)

	sim2, test := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
	if err := sim2.SetInitialState(state); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(sim2.Spec, test)
	if got, want := ev.Accuracy(sim2.GlobalState()), ev.Accuracy(state); got != want {
		t.Fatalf("resumed state accuracy %v, want %v", got, want)
	}
	if err := sim2.SetInitialState([]float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}
