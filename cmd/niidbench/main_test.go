package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"github.com/niid-bench/niidbench/internal/fedcli"
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
	artifact, _ := artifactCommand()()
	flagtest.Golden(t, "artifact", artifact)
}

// TestEveryPartitionKindRunsOrErrors walks the seven partition kinds over
// their natural dataset and over one that lacks the kind's precondition,
// at 4 and at the default-like 10 parties, through both entries a flag
// value can take: Shared.Build as fedserver/fedparty parse it, and
// `niidbench run`. Every row trains or returns a one-line error naming
// -partition; none may panic (FCUBE at 10 parties and a writer split of a
// writer-less family both used to).
func TestEveryPartitionKindRunsOrErrors(t *testing.T) {
	for _, row := range []struct {
		kind, dataset, extra string
		ok                   bool
	}{
		{"iid", "adult", "", true},
		{"label-quantity", "mnist", "", true},
		{"label-quantity", "fcube", "-k 3", false}, // two classes
		{"label-dirichlet", "cifar10", "", true},
		{"feature-noise", "adult", "", true},
		{"feature-synthetic", "fcube", "", true},
		{"feature-synthetic", "adult", "", true}, // octants of the first three features
		{"feature-realworld", "femnist", "", true},
		{"feature-realworld", "adult", "", false}, // no writer annotations
		{"quantity", "adult", "", true},
	} {
		for _, parties := range []string{"4", "10"} {
			args := strings.Fields("-dataset " + row.dataset + " -partition " + row.kind + " " + row.extra +
				" -parties " + parties + " -train 200 -test 50 -rounds 1 -epochs 1")
			name := strings.Join(args[:6], " ")

			var s fedcli.Shared
			fs := flag.NewFlagSet("fedserver", flag.ContinueOnError)
			s.Register(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			_, _, locals, _, buildErr := s.Build()
			runErr := run(append([]string{"run"}, args...))
			for entry, err := range map[string]error{"Shared.Build": buildErr, "niidbench run": runErr} {
				if row.ok && err != nil {
					t.Errorf("%s via %s: %v", name, entry, err)
				}
				if !row.ok && (err == nil || !strings.Contains(err.Error(), "-partition "+row.kind)) {
					t.Errorf("%s via %s: error %v, want one naming -partition %s", name, entry, err, row.kind)
				}
			}
			if row.kind == "feature-synthetic" && len(locals) != 4 {
				t.Errorf("%s: %d shards, want FCUBE's 4", name, len(locals))
			}
		}
	}
}

// TestCodecWithoutTCPStillQuantizes: -codec is a needs-a-wire setting, so
// it picks a transport by itself; before that rule `run` without -tcp ran
// the job as the raw f64 simulation and reported f64's bytes.
func TestCodecWithoutTCPStillQuantizes(t *testing.T) {
	bytesPerRound := func(codec string) float64 {
		t.Helper()
		job := fedcli.Shared{Dataset: "adult", Partition: "iid", TrainN: 300, TestN: 100}
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		job.Register(fs, fedcli.Data, fedcli.Training)
		if err := fs.Parse([]string{"-rounds", "2", "-epochs", "1", "-codec", codec}); err != nil {
			t.Fatal(err)
		}
		res, err := federate(&job, &fedcli.ModelFiles{}, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.CommBytesPerRound
	}
	if f64, int8 := bytesPerRound("f64"), bytesPerRound("int8"); int8*4 >= f64 {
		t.Fatalf("-codec int8 without -tcp moved %.0f B/round against f64's %.0f", int8, f64)
	}
}
