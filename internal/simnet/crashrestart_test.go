package simnet

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

// The crash-restart tests run the federation server in a child OS process
// (this test binary re-executing itself) so SIGKILL is a real process
// death — no deferred cleanup, no flushed buffers — while the parties
// live in the parent and survive the server across the restart, exactly
// like real silo processes would.

const (
	crashHelperEnv = "NIIDBENCH_CRASH_SERVER"
	crashAddrEnv   = "NIIDBENCH_CRASH_ADDR"
	crashDirEnv    = "NIIDBENCH_CRASH_DIR"
	crashAlgoEnv   = "NIIDBENCH_CRASH_ALGO"
	crashAsyncEnv  = "NIIDBENCH_CRASH_ASYNC"
)

// crashCfg is the shared run shape for the crash tests; the helper
// process rebuilds the identical federation from the algorithm name.
func crashCfg(alg fl.Algorithm) fl.Config {
	return fl.Config{
		Algorithm: alg, Rounds: 4, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Mu: 0.01, Seed: 5, ChunkSize: 256,
		MinParties: 3, QuorumWait: 20 * time.Second,
	}
}

// crashRejoin is the crash tests' redial policy, sized to the longest gap
// a party must ride out: the server's restart window, which took at most
// 0.21 s (three refused redials) under -race on a 2-core box. 22 redials
// at 10 ms doubling to a 100 ms cap wait about 2 s before a party gives
// up — ten times that window — and that budget is also the tail of a
// party drop chaos cut off as the restarted server finished, which
// redials the gone server until it runs out.
var crashRejoin = PartyOptions{
	Rejoin:           true,
	RejoinBackoff:    10 * time.Millisecond,
	RejoinBackoffMax: 100 * time.Millisecond,
	RejoinAttempts:   22,
}

// asyncCrashCfg is the crash shape for buffered-async mode: generations
// replace rounds, and the longer schedule keeps the SIGKILL landing
// mid-run even though generations mint faster than barriered rounds.
func asyncCrashCfg(alg fl.Algorithm) fl.Config {
	cfg := crashCfg(alg)
	cfg.AsyncBuffer = 2
	cfg.Rounds = 8
	return cfg
}

func crashData(t *testing.T) ([]*data.Dataset, *data.Dataset, nn.ModelSpec) {
	t.Helper()
	train, test, err := data.Load("adult", data.Config{TrainN: 300, TestN: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := data.Model("adult")
	if err != nil {
		t.Fatal(err)
	}
	return locals, test, spec
}

// TestCrashServerProcessHelper is not a test of its own: it is the server
// process the crash-restart tests spawn. Gated on an env var so the
// normal suite skips it instantly.
func TestCrashServerProcessHelper(t *testing.T) {
	if os.Getenv(crashHelperEnv) == "" {
		t.Skip("helper process for the crash-restart tests")
	}
	addr, dir := os.Getenv(crashAddrEnv), os.Getenv(crashDirEnv)
	cfg := crashCfg(fl.Algorithm(os.Getenv(crashAlgoEnv)))
	if os.Getenv(crashAsyncEnv) != "" {
		cfg = asyncCrashCfg(fl.Algorithm(os.Getenv(crashAlgoEnv)))
	}
	locals, test, spec := crashData(t)

	ln, err := Listen(addr)
	if err != nil {
		t.Fatalf("helper listen: %v", err)
	}
	defer ln.Close()
	ln.RoundTimeout = 20 * time.Second
	ln.RejoinGrace = 300 * time.Millisecond
	snapPath := filepath.Join(dir, fl.SnapshotFileName)
	if snap, err := fl.LoadSnapshotFile(snapPath); err == nil {
		ln.Resume = snap
	} else if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("helper: snapshot unreadable: %v", err)
	}
	ln.Checkpoint = func(snap *fl.FederationSnapshot) error {
		return fl.WriteSnapshotFile(snapPath, snap)
	}
	ln.CheckpointEvery = 1
	res, err := ln.AcceptAndRun(len(locals), cfg, spec, test)
	if err != nil {
		t.Fatalf("helper serve: %v", err)
	}
	if err := fl.WriteSnapshotFile(filepath.Join(dir, "final.model"), &fl.FederationSnapshot{State: res.FinalState}); err != nil {
		t.Fatalf("helper: writing final state: %v", err)
	}
}

// freePort reserves an ephemeral port and releases it, so the server
// child — and its restarted successor — can bind a known address the
// parties keep redialing across the crash.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func spawnServer(t *testing.T, addr, dir string, alg fl.Algorithm, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashServerProcessHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		crashHelperEnv+"=1",
		crashAddrEnv+"="+addr,
		crashDirEnv+"="+dir,
		crashAlgoEnv+"="+string(alg),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning server process: %v", err)
	}
	return cmd
}

// waitSnapshotRound polls the snapshot file until it records at least
// minRound completed rounds. Thanks to the atomic rename the file is
// always either absent or complete — a decode error mid-poll is a bug.
func waitSnapshotRound(t *testing.T, path string, minRound int, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		snap, err := fl.LoadSnapshotFile(path)
		if err == nil && snap.Round >= minRound {
			return
		}
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("snapshot unreadable while server lives: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("snapshot never reached round %d", minRound)
}

// crashRestartRun executes the full kill-and-resume choreography for one
// algorithm and returns the final model the restarted server produced:
// spawn the server child, run the parties in-process with unlimited
// rejoin, SIGKILL the server once round minKillRound is durable, restart
// it from the checkpoint dir, and wait for the run to finish.
func crashRestartRun(t *testing.T, alg fl.Algorithm, faults *FaultPlan) []float64 {
	cfg := crashCfg(alg)
	locals, _, spec := crashData(t)
	dir := t.TempDir()
	addr := freePort(t)

	server := spawnServer(t, addr, dir, alg)
	var wg sync.WaitGroup
	partyErrs := make([]error, len(locals))
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			opts := crashRejoin
			opts.Faults = faults
			partyErrs[i] = DialPartyOpts(addr, i, ds, spec, cfg, PartySeed(cfg.Seed, i), opts)
		}(i, ds)
	}

	// Kill the server the moment the first round boundary is durable: the
	// remaining rounds are in flight, so the SIGKILL lands mid-run.
	snapPath := filepath.Join(dir, fl.SnapshotFileName)
	waitSnapshotRound(t, snapPath, 1, 30*time.Second)
	if err := server.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL server: %v", err)
	}
	err := server.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("server survived SIGKILL? wait: %v", err)
	}
	snap, err := fl.LoadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("post-kill snapshot unreadable: %v", err)
	}
	if snap.Round >= cfg.Rounds {
		t.Fatalf("server finished all %d rounds before the kill landed — crash not exercised", cfg.Rounds)
	}

	restarted := spawnServer(t, addr, dir, alg)
	if err := restarted.Wait(); err != nil {
		t.Fatalf("restarted server failed: %v", err)
	}
	wg.Wait()
	// Under connection-killing chaos a party may be cut loose right at the
	// end and exhaust its redials against the finished server — part of
	// the chaos, and the server-side result is the oracle. Without drops
	// every party must end via clean shutdown.
	if faults == nil || faults.DropProb == 0 {
		for i, err := range partyErrs {
			if err != nil {
				t.Fatalf("party %d: %v", i, err)
			}
		}
	}
	final, err := fl.LoadSnapshotFile(filepath.Join(dir, "final.model"))
	if err != nil {
		t.Fatalf("restarted server left no final model: %v", err)
	}
	return final.State
}

// referenceRun produces the uninterrupted oracle over real TCP with the
// identical fixture, seeds and party options (minus the crash).
func referenceRun(t *testing.T, alg fl.Algorithm, faults *FaultPlan) *fl.Result {
	cfg := crashCfg(alg)
	locals, test, spec := crashData(t)
	opts := ServerOptions{RoundTimeout: 20 * time.Second, RejoinGrace: 300 * time.Millisecond}
	return mustLoopback(t, cfg, spec, locals, test, opts, func(int) PartyOptions {
		po := crashRejoin
		po.Faults = faults
		return po
	})
}

// TestCrashRestartBitwiseAllAlgorithms is the headline durability proof:
// for every algorithm, SIGKILL the server process mid-run, restart it
// from the checkpoint directory, and the completed federation's final
// model is bitwise identical to a run that never crashed — server-side
// optimizer state, SCAFFOLD/FedDyn server state, sampler position and
// the parties' single-round reply caches all have to line up for this to
// hold.
func TestCrashRestartBitwiseAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short")
	}
	for _, alg := range fl.ExtendedAlgorithms() {
		t.Run(string(alg), func(t *testing.T) {
			want := referenceRun(t, alg, nil)
			got := crashRestartRun(t, alg, nil)
			if len(got) != len(want.FinalState) {
				t.Fatalf("state length %d, want %d", len(got), len(want.FinalState))
			}
			for i := range got {
				if got[i] != want.FinalState[i] {
					t.Fatalf("crash-restarted model diverges at [%d]: %v != %v",
						i, got[i], want.FinalState[i])
				}
			}
		})
	}
}

// TestCrashRestartBitwiseUnderChaos repeats the kill-and-resume proof
// with a latency/jitter fault plan on every party — slow links and
// stragglers across the crash. Only timing faults are injected: timing
// never moves the math, so bitwise identity must still hold. (Drop
// chaos intentionally isn't pinned bitwise: a dropped party re-trains
// its round, which is a different — equally valid — federation than the
// reference's; the soak below covers that regime.)
func TestCrashRestartBitwiseUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short")
	}
	plan := &FaultPlan{Seed: 99, Latency: 2 * time.Millisecond, Jitter: 3 * time.Millisecond, Grace: 1}
	want := referenceRun(t, fl.Scaffold, plan)
	got := crashRestartRun(t, fl.Scaffold, plan)
	for i := range got {
		if got[i] != want.FinalState[i] {
			t.Fatalf("chaos crash-restart diverges at [%d]: %v != %v", i, got[i], want.FinalState[i])
		}
	}
}

// TestCrashRestartSurvivesDropChaos is the completion soak for the ugly
// regime: connection-killing chaos AND a server SIGKILL in the same run.
// Bitwise identity is out of scope (drops re-train rounds); what must
// hold is durability — the restarted server finishes the schedule and
// leaves a loadable final model.
func TestCrashRestartSurvivesDropChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short")
	}
	plan := &FaultPlan{Seed: 7, DropProb: 0.02, Grace: 1}
	final := crashRestartRun(t, fl.FedAvg, plan)
	if len(final) == 0 {
		t.Fatal("empty final model after drop-chaos crash restart")
	}
	for i, v := range final {
		if v != v { // NaN
			t.Fatalf("final model has NaN at [%d]", i)
		}
	}
}

// TestAsyncCrashRestartCompletes is the durability proof for the
// buffered-async mode: SIGKILL the async server once a generation
// boundary is durable, restart it from the checkpoint, and the
// federation — parties rejoining, the coordinator resuming at the
// restored generation — must complete its full generation schedule and
// leave a loadable, finite final model. Bitwise identity is out of scope
// by design: async fold order is scheduling-dependent.
func TestAsyncCrashRestartCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short")
	}
	cfg := asyncCrashCfg(fl.FedAvg)
	locals, _, spec := crashData(t)
	dir := t.TempDir()
	addr := freePort(t)

	server := spawnServer(t, addr, dir, fl.FedAvg, crashAsyncEnv+"=1")
	var wg sync.WaitGroup
	partyErrs := make([]error, len(locals))
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			partyErrs[i] = DialPartyOpts(addr, i, ds, spec, cfg, PartySeed(cfg.Seed, i), crashRejoin)
		}(i, ds)
	}

	snapPath := filepath.Join(dir, fl.SnapshotFileName)
	waitSnapshotRound(t, snapPath, 1, 30*time.Second)
	if err := server.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL server: %v", err)
	}
	err := server.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("server survived SIGKILL? wait: %v", err)
	}
	snap, err := fl.LoadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("post-kill snapshot unreadable: %v", err)
	}
	if snap.Round >= cfg.Rounds {
		t.Fatalf("server finished all %d generations before the kill landed — crash not exercised", cfg.Rounds)
	}

	restarted := spawnServer(t, addr, dir, fl.FedAvg, crashAsyncEnv+"=1")
	if err := restarted.Wait(); err != nil {
		t.Fatalf("restarted async server failed: %v", err)
	}
	wg.Wait()
	for i, err := range partyErrs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
	final, err := fl.LoadSnapshotFile(filepath.Join(dir, "final.model"))
	if err != nil {
		t.Fatalf("restarted async server left no final model: %v", err)
	}
	if len(final.State) == 0 {
		t.Fatal("empty final model after async crash restart")
	}
	for i, v := range final.State {
		if v != v { // NaN
			t.Fatalf("final model has NaN at [%d]", i)
		}
	}
}
