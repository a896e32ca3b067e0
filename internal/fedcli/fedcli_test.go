package fedcli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/niid-bench/niidbench/internal/fl"
)

func parse(t *testing.T, args ...string) *Shared {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var s Shared
	s.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestBuildDeterministicAcrossProcesses(t *testing.T) {
	// Two independent Shared values with the same flags must produce
	// identical local shards — the contract multi-process federation
	// relies on.
	args := []string{"-dataset", "adult", "-parties", "3", "-train", "200", "-test", "50", "-seed", "9"}
	a, b := parse(t, args...), parse(t, args...)
	_, _, localsA, testA, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, _, localsB, testB, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(localsA) != 3 || len(localsB) != 3 {
		t.Fatalf("parties: %d/%d", len(localsA), len(localsB))
	}
	for p := range localsA {
		if localsA[p].Len() != localsB[p].Len() {
			t.Fatalf("party %d sizes differ", p)
		}
		for i := range localsA[p].X {
			if localsA[p].X[i] != localsB[p].X[i] {
				t.Fatalf("party %d features differ at %d", p, i)
			}
		}
	}
	for i := range testA.X {
		if testA.X[i] != testB.X[i] {
			t.Fatal("test sets differ")
		}
	}
}

func TestBuildSeedChangesData(t *testing.T) {
	a := parse(t, "-dataset", "adult", "-train", "200", "-test", "50", "-seed", "1")
	b := parse(t, "-dataset", "adult", "-train", "200", "-test", "50", "-seed", "2")
	_, _, localsA, _, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, _, localsB, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range localsA[0].X {
		if i < len(localsB[0].X) && localsA[0].X[i] != localsB[0].X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical shards")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, _, _, _, err := parse(t, "-dataset", "nope").Build(); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if _, _, _, _, err := parse(t, "-algo", "nope").Build(); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if _, _, _, _, err := parse(t, "-partition", "nope").Build(); err == nil {
		t.Fatal("expected error for unknown partition")
	}
}

func TestValidateIndex(t *testing.T) {
	s := parse(t, "-parties", "4")
	if err := s.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(4); err == nil {
		t.Fatal("expected error for index == parties")
	}
	if err := s.Validate(-1); err == nil {
		t.Fatal("expected error for negative index")
	}
}

func TestPartySeedsDistinct(t *testing.T) {
	s := parse(t)
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seed := s.PartySeed(i)
		if seen[seed] {
			t.Fatalf("duplicate party seed %d", seed)
		}
		seen[seed] = true
	}
}

func TestFCubeForcesFourParties(t *testing.T) {
	s := parse(t, "-dataset", "fcube", "-partition", "feature-synthetic", "-parties", "10", "-train", "400", "-test", "100")
	_, _, locals, _, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != 4 {
		t.Fatalf("fcube parties: %d", len(locals))
	}
}

// TestBuildMatchesParentOnBenchmarkFlags: the benchmark builds every
// workload's fl.Config through these flag strings (benchmark/workloads.go,
// plus the suffix benchmark/config.go appends), so Build must keep
// returning, field for field, the config it returned before the flags
// bound straight into it. The literals were cut at the commit before that
// change.
func TestBuildMatchesParentOnBenchmarkFlags(t *testing.T) {
	const (
		cnn  = "-parties 4 -epochs 2 -batch 32 -lr 0.0007 -partition label-dirichlet -beta 0.5 -chunk 65536 -codec f64"
		wide = "-parties 8 -epochs 1 -batch 32 -lr 0.0003 -partition label-dirichlet -beta 0.5 -chunk 4096"
	)
	cnnCfg := fl.Config{Algorithm: "fedavg", Rounds: 44, LocalEpochs: 2, BatchSize: 32, LR: 0.0007, Momentum: 0.9, Mu: 0.01, Seed: 1, ChunkSize: 65536, Codec: "f64"}
	wideCfg := fl.Config{Algorithm: "fedavg", Rounds: 200, LocalEpochs: 1, BatchSize: 32, LR: 0.0003, Momentum: 0.9, Mu: 0.01, Seed: 1, ChunkSize: 4096, Codec: "f64"}
	int8Cfg, asyncCfg := wideCfg, wideCfg
	int8Cfg.Codec = "int8"
	asyncCfg.Rounds, asyncCfg.AsyncBuffer = 220, 2
	for _, w := range []struct {
		name, flags, rounds string
		parties             int
		want                fl.Config
	}{
		{"cnn-f64-sync", cnn, "44", 4, cnnCfg},
		{"cnn-f32-sync", cnn, "44", 4, cnnCfg},
		{"wide-f64-sync", wide + " -codec f64", "200", 8, wideCfg},
		{"wide-int8-sync", wide + " -codec int8", "200", 8, int8Cfg},
		{"wide-f64-async", wide + " -codec f64 -async-buffer 2", "220", 8, asyncCfg},
	} {
		s := parse(t, append(strings.Fields(w.flags), "-rounds", w.rounds, "-dataset", "fcube", "-train", "64", "-test", "8")...)
		got, _, locals, _, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got != w.want || len(locals) != w.parties || s.Parties != w.parties {
			t.Errorf("%s: %d parties\n got %+v\nwant %+v", w.name, len(locals), got, w.want)
		}
	}
}

// TestRegisterGroupsAndDefaults: the groups partition the table (no flag
// in two, none left out), and a pre-filled field is its flag's default
// while an untouched one keeps the table's.
func TestRegisterGroupsAndDefaults(t *testing.T) {
	count := func(groups ...Group) int {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		new(Shared).Register(fs, groups...) // a name in two groups would panic here
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		return n
	}
	if d, tr, dep, p, all := count(Data), count(Training), count(Deployment), count(Party), count(); d != 8 || tr != 10 || dep != 2 || p != 6 || all != 26 || count(Data, Training, Deployment, Party) != all {
		t.Fatalf("flags per group: data %d, training %d, deployment %d, party %d, all %d", d, tr, dep, p, all)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Shared{Dataset: "cifar10", Parties: 10}
	s.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Dataset != "cifar10" || s.Parties != 10 || s.Partition != "label-dirichlet" || s.Config.Rounds != 10 {
		t.Fatalf("defaults after a pre-fill: %+v", s)
	}
}

// TestReadmeFlagReference keeps README's "Command-line reference" the
// flag table: one row per flag, generated from the registered names,
// defaults and usage strings.
func TestReadmeFlagReference(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		group Group
		cmds  string
	}{
		{Data, "`fedserver` `fedparty` `run` `partition-stats`"},
		{Training, "`fedserver` `fedparty` `run`"},
		{Deployment, "`fedserver` `fedparty`"},
		{Party, "`fedparty`"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		new(Shared).Register(fs, g.group)
		fs.VisitAll(func(f *flag.Flag) {
			row := fmt.Sprintf("| `-%s` | `%s` | %s | %s |", f.Name, f.DefValue, f.Usage, g.cmds)
			if !strings.Contains(string(readme), row) {
				t.Errorf("README.md lacks the flag-table row:\n%s", row)
			}
		})
	}
}
