// Package fedcli is the job description every binary shares: the one
// table of job flags (dataset family and sizes, partition strategy, party
// count, training config, cross-process deployment), the one assembly of a
// flag-described job into (config, model spec, local shards, test set),
// and the model-file and result-printing steps around a run. fedserver
// and fedparty regenerate the same synthetic dataset and partition
// deterministically from identical flags, standing in for silos that own
// their local data; `niidbench run` and `partition-stats` register the
// same table with their own defaults.
package fedcli

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/report"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
)

// Group names one slice of the flag table, so a command registers the
// slices it has a use for.
type Group int

const (
	// Data is what to partition and how: -dataset -partition -k -beta
	// -sigma -parties -train -seed.
	Data Group = 1 << iota
	// Training is what to run on the shards: -test -algo -rounds -epochs
	// -batch -lr -mu -chunk -async-buffer -codec.
	Training
	// Deployment is what separate processes must agree on: -token
	// -min-parties.
	Deployment
	// Party is how a party dials and what faults its side injects:
	// -rejoin -hello-timeout -fault-seed -drop-prob -latency -jitter.
	// Only fedparty reads these.
	Party
)

// Shared is a federated job described by flags. A command that wants
// other defaults than Register's pre-fills the fields before calling it.
type Shared struct {
	Dataset   string
	Partition string
	K         int
	Beta      float64
	Sigma     float64
	// Mix adds Sigma feature noise on top of a non-noise partition kind
	// (the paper's mixed-skew settings); only `niidbench run` has a flag
	// for it.
	Mix     bool
	Parties int
	TrainN  int
	TestN   int
	// Config is the training config the flags bind into directly; see its
	// fields for what -chunk, -min-parties, -async-buffer and -codec mean.
	// The server's values are authoritative where both sides have one.
	Config fl.Config
	// Token is the optional shared handshake secret. The server rejects
	// (only) the connections that fail to present it.
	Token string
	// Rejoin makes a party survive transport loss by redialing with
	// backoff and re-helloing under its old ID (the server answers with a
	// resync).
	Rejoin bool
	// HelloTimeout bounds how long a party waits for the server's first
	// frame after its hello (0 = forever) — the party-side mirror of the
	// server's hello timeout.
	HelloTimeout time.Duration
	// FaultSeed, DropProb, Latency and Jitter describe the deterministic
	// fault plan injected on the party side (see simnet.FaultPlan); all
	// zero means no faults.
	FaultSeed       uint64
	DropProb        float64
	Latency, Jitter time.Duration
}

// Register wires the named groups of the flag table into fs — all of
// them when none is named. It is the only place a job flag is declared. A
// field already set is that flag's default.
func (s *Shared) Register(fs *flag.FlagSet, groups ...Group) {
	var want Group
	for _, g := range groups {
		want |= g
	}
	if want == 0 {
		want = Data | Training | Deployment | Party
	}
	c := &s.Config
	if want&Data != 0 {
		fs.StringVar(&s.Dataset, "dataset", cmp.Or(s.Dataset, "adult"), "dataset family")
		fs.StringVar(&s.Partition, "partition", cmp.Or(s.Partition, "label-dirichlet"), "partition kind (iid, label-quantity, label-dirichlet, feature-noise, feature-synthetic, feature-realworld, quantity)")
		fs.IntVar(&s.K, "k", cmp.Or(s.K, 2), "classes per party for label-quantity")
		fs.Float64Var(&s.Beta, "beta", cmp.Or(s.Beta, 0.5), "Dirichlet concentration")
		fs.Float64Var(&s.Sigma, "sigma", cmp.Or(s.Sigma, 0.1), "noise level for feature-noise")
		fs.IntVar(&s.Parties, "parties", cmp.Or(s.Parties, 4), "number of parties (feature-synthetic always runs with 4)")
		fs.IntVar(&s.TrainN, "train", s.TrainN, "training samples (0 = family default)")
		fs.Uint64Var(&c.Seed, "seed", cmp.Or(c.Seed, 1), "shared seed; all processes must use the same value")
	}
	if want&Training != 0 {
		fs.IntVar(&s.TestN, "test", s.TestN, "test samples (0 = family default)")
		fs.StringVar((*string)(&c.Algorithm), "algo", string(cmp.Or(c.Algorithm, fl.FedAvg)), "fedavg, fedprox, scaffold, fednova, feddyn, moon")
		fs.IntVar(&c.Rounds, "rounds", cmp.Or(c.Rounds, 10), "communication rounds")
		fs.IntVar(&c.LocalEpochs, "epochs", cmp.Or(c.LocalEpochs, 3), "local epochs")
		fs.IntVar(&c.BatchSize, "batch", cmp.Or(c.BatchSize, 32), "batch size")
		fs.Float64Var(&c.LR, "lr", cmp.Or(c.LR, 0.01), "learning rate")
		fs.Float64Var(&c.Mu, "mu", cmp.Or(c.Mu, 0.01), "FedProx mu")
		fs.IntVar(&c.ChunkSize, "chunk", cmp.Or(c.ChunkSize, 65536), "frame size in float64 elements for broadcasts and update replies (0 = one frame per vector); bit-identical at every size under f64/f32, the quantization unit under int8/int4; the server's value wins")
		fs.IntVar(&c.AsyncBuffer, "async-buffer", c.AsyncBuffer, "buffered-async aggregation: fold updates as they arrive and publish a new global every M folds (0 = synchronous rounds); needs a transport; the server's value decides the mode")
		fs.StringVar((*string)(&c.Codec), "codec", string(c.Codec), "wire chunk codec: f64 (raw, default), f32, int8, int4; one scale per frame; any but f64 needs a transport; negotiated per party, peers without it fall back to f64")
	}
	if want&Deployment != 0 {
		fs.StringVar(&s.Token, "token", s.Token, "shared handshake secret; when the server sets one, parties must present it")
		fs.IntVar(&c.MinParties, "min-parties", c.MinParties, "server round quorum: rounds with fewer live parties are skipped and retried (0 = any)")
	}
	if want&Party != 0 {
		fs.BoolVar(&s.Rejoin, "rejoin", s.Rejoin, "party: redial with backoff after transport loss and rejoin under the old ID")
		fs.DurationVar(&s.HelloTimeout, "hello-timeout", s.HelloTimeout, "party: max wait for the server's first frame after the hello (0 = forever)")
		fs.Uint64Var(&s.FaultSeed, "fault-seed", s.FaultSeed, "party: seed for the deterministic fault plan (with -drop-prob/-latency)")
		fs.Float64Var(&s.DropProb, "drop-prob", s.DropProb, "party: per-frame probability of killing the connection (fault injection)")
		fs.DurationVar(&s.Latency, "latency", s.Latency, "party: injected delay per sent frame (fault injection)")
		fs.DurationVar(&s.Jitter, "jitter", s.Jitter, "party: extra uniform delay per sent frame on top of -latency")
	}
}

// Strategy is the partition strategy the flags describe.
func (s *Shared) Strategy() partition.Strategy {
	strat := partition.Strategy{Kind: partition.Kind(s.Partition), K: s.K, Beta: s.Beta}
	if s.Mix || strat.Kind == partition.FeatureNoise {
		strat.NoiseSigma = s.Sigma
	}
	return strat
}

// Build regenerates the dataset, partition, model spec and training config
// from the flags; Parties becomes the count the strategy runs with. Every
// process calling Build with identical flags gets identical local
// datasets.
func (s *Shared) Build() (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
	fail := func(err error) (fl.Config, nn.ModelSpec, []*data.Dataset, *data.Dataset, error) {
		return fl.Config{}, nn.ModelSpec{}, nil, nil, err
	}
	strat := s.Strategy()
	s.Parties = strat.Parties(s.Parties)
	cfg := s.Config
	cfg.Momentum = 0.9 // the paper's value; no flag sets it
	train, test, err := data.Load(s.Dataset, data.Config{TrainN: s.TrainN, TestN: s.TestN, Seed: cfg.Seed})
	if err != nil {
		return fail(err)
	}
	spec, err := data.Model(s.Dataset)
	if err != nil {
		return fail(err)
	}
	// The cross-process partition-seed rule: every binary given the same
	// -seed derives the same shards.
	_, locals, err := strat.Split(train, s.Parties, rng.New(cfg.Seed+17))
	if err != nil {
		return fail(fmt.Errorf("-partition %s on -dataset %s with -parties %d: %w", s.Partition, s.Dataset, s.Parties, err))
	}
	if _, err := cfg.Normalize(); err != nil {
		return fail(err)
	}
	return cfg, spec, locals, test, nil
}

// PrintResult writes the summary of a finished run.
func (s *Shared) PrintResult(w io.Writer, res *fl.Result) {
	fmt.Fprintf(w, "dataset=%s partition=%s algorithm=%s\n", s.Dataset, s.Strategy(), res.Config.Algorithm)
	fmt.Fprintf(w, "parameters=%d state=%d\n", res.ParamCount, res.StateCount)
	accs := make([]float64, len(res.Curve))
	for i, m := range res.Curve {
		accs[i] = m.TestAccuracy
	}
	fmt.Fprintln(w, report.Curve("test accuracy", accs))
	fmt.Fprintf(w, "final accuracy: %s (best %s)\n", report.Percent(res.FinalAccuracy), report.Percent(res.BestAccuracy))
	fmt.Fprintf(w, "communication: %s/round, %s total\n", report.Bytes(res.CommBytesPerRound), report.Bytes(float64(res.TotalCommBytes)))
	fmt.Fprintf(w, "computation: %v total\n", res.ComputeTime)
	if res.Async != nil {
		fmt.Fprintf(w, "async: %d folds over %d generations, staleness mean %.2f max %d\n",
			res.Async.Folds, len(res.Curve), res.Async.MeanStaleness, res.Async.MaxStaleness)
	}
}

// ModelFiles carries -load-model and -save-model: a model file is a
// federation snapshot holding only the global state.
type ModelFiles struct {
	Load, Save string
}

// Register wires the two model-file flags into fs.
func (m *ModelFiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.Load, "load-model", "", "seed the initial global model from the state of this model file or federation snapshot")
	fs.StringVar(&m.Save, "save-model", "", "write the final global model state to this file")
}

// Initial returns the state -load-model names, nil when it is unset.
func (m *ModelFiles) Initial(w io.Writer) ([]float64, error) {
	if m.Load == "" {
		return nil, nil
	}
	snap, err := fl.LoadSnapshotFile(m.Load)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "initial model loaded from %s\n", m.Load)
	return snap.State, nil
}

// Write saves the run's final state where -save-model says, if it does.
func (m *ModelFiles) Write(w io.Writer, res *fl.Result) error {
	if m.Save == "" {
		return nil
	}
	if err := fl.WriteSnapshotFile(m.Save, &fl.FederationSnapshot{State: res.FinalState}); err != nil {
		return err
	}
	fmt.Fprintf(w, "model state saved to %s\n", m.Save)
	return nil
}

// Server carries the server-only durability flags: where (and how often)
// the federation checkpoints itself.
type Server struct {
	// CheckpointDir, when non-empty, is the directory the server writes
	// its federation snapshot into (crash-safely, at round boundaries)
	// and restores from at startup if a snapshot is already there.
	CheckpointDir string
	// CheckpointEvery is the snapshot cadence in rounds (default 1: every
	// round boundary is durable, which is what makes a crash-restart
	// bitwise-invisible; coarser cadences trade fsync cost for replaying
	// more rounds after a crash).
	CheckpointEvery int
}

// RegisterServer wires the server-only flags into fs.
func (s *Server) RegisterServer(fs *flag.FlagSet) {
	fs.StringVar(&s.CheckpointDir, "checkpoint-dir", "", "directory for durable federation snapshots; restart with the same flags to resume from the last round boundary")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 1, "snapshot cadence in rounds (1 = every round, the only cadence that pins a crash-restart bitwise)")
}

// SnapshotPath returns the snapshot file path inside CheckpointDir, or
// "" when checkpointing is off.
func (s *Server) SnapshotPath() string {
	if s.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.CheckpointDir, fl.SnapshotFileName)
}

// PartyOptions assembles the dialing options for one party from the
// deployment flags; the fault plan is nil when no fault axis is set.
func (s *Shared) PartyOptions() simnet.PartyOptions {
	opts := simnet.PartyOptions{Token: s.Token, HelloTimeout: s.HelloTimeout, Rejoin: s.Rejoin}
	if p := (simnet.FaultPlan{Seed: s.FaultSeed, DropProb: s.DropProb, Latency: s.Latency, Jitter: s.Jitter}); !p.Empty() {
		opts.Faults = &p
	}
	return opts
}

// PartySeed returns the deterministic training seed for party index i.
func (s *Shared) PartySeed(i int) uint64 {
	return simnet.PartySeed(s.Config.Seed, i)
}

// Validate checks the party index against the federation size.
func (s *Shared) Validate(index int) error {
	if index < 0 || index >= s.Parties {
		return fmt.Errorf("fedcli: party index %d outside [0,%d)", index, s.Parties)
	}
	return nil
}
