package main

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/niid-bench/niidbench/internal/fedcli/flagtest"
	"github.com/niid-bench/niidbench/internal/fl"
)

// TestRunLoadModelEveryPath pins that -load-model seeds the global model
// on every path `niidbench run` can take — the in-process simulation,
// loopback TCP, and buffered-async (which rides the sockets too). Each row
// loads a trained model and runs one round at a learning rate so small
// that every update is a floating-point no-op, so the run ends bitwise
// where it started: on the loaded state, not on a fresh initialisation.
func TestRunLoadModelEveryPath(t *testing.T) {
	dir := t.TempDir()
	trained := filepath.Join(dir, "trained.snap")
	common := "-dataset adult -partition iid -parties 3 -train 300 -test 100 -epochs 1 -seed 3"
	if err := run(strings.Fields("run " + common + " -rounds 2 -save-model " + trained)); err != nil {
		t.Fatal(err)
	}
	want, err := fl.LoadSnapshotFile(trained)
	if err != nil {
		t.Fatal(err)
	}
	for name, flags := range map[string]string{
		"simulation": "",
		"tcp":        "-tcp",
		"async":      "-async-buffer 2",
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(dir, name+".snap")
			args := "run " + common + " -rounds 1 -lr 1e-300 " + flags + " -load-model " + trained + " -save-model " + out
			if err := run(strings.Fields(args)); err != nil {
				t.Fatal(err)
			}
			got, err := fl.LoadSnapshotFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.State) != len(want.State) {
				t.Fatalf("state length %d, loaded model has %d", len(got.State), len(want.State))
			}
			for i := range want.State {
				if got.State[i] != want.State[i] {
					t.Fatalf("state[%d] = %v, loaded model has %v: the run did not start from it", i, got.State[i], want.State[i])
				}
			}
		})
	}
}

// TestFlagsGolden pins every niidbench command's flag names and defaults.
func TestFlagsGolden(t *testing.T) {
	run, _ := runCommand()
	flagtest.Golden(t, "run", run)
	stats, _ := partitionStatsCommand()
	flagtest.Golden(t, "partition-stats", stats)
	artifact, _ := expCommand("table3")
	flagtest.Golden(t, "artifact", artifact)
}
