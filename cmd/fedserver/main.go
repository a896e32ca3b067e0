// Command fedserver runs the server half of a real multi-process federated
// deployment: it listens on a TCP address, waits for every party process
// to connect, runs the configured rounds and prints the result.
//
// Server and parties must launch with identical shared flags (-dataset,
// -partition, -parties, -seed, ...) so each process regenerates the same
// synthetic data and partition deterministically — the stand-in for silos
// that own their local data.
//
// The server refuses a conn whose hello has not arrived within 10 s; a
// party refused for a slow hello redials. fedparty -hello-timeout is the
// party's own wait for the server's first frame, not that bound.
//
//	fedserver -addr 127.0.0.1:7070 -dataset adult -parties 4 -algo fedprox &
//	for i in 0 1 2 3; do
//	  fedparty -addr 127.0.0.1:7070 -index $i -dataset adult -parties 4 -algo fedprox &
//	done
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func main() {
	fs, serve := command()
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
	serve()
}

// command declares fedserver's flags and returns them with the server run
// that reads them once parsed.
func command() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("fedserver", flag.ExitOnError)
	var (
		shared fedcli.Shared
		srv    fedcli.Server
		models fedcli.ModelFiles
		opts   simnet.ServerOptions
	)
	shared.Register(fs, fedcli.Data, fedcli.Training, fedcli.Deployment)
	srv.RegisterServer(fs)
	models.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	fs.DurationVar(&opts.RoundTimeout, "round-timeout", 0, "max wait per reply frame within a round (0 = wait forever); stalled parties are suspected and dropped from the round")
	fs.DurationVar(&opts.RejoinGrace, "rejoin-grace", 0, "how long a round's broadcast waits for a just-departed party to rejoin before dropping it (0 = never wait)")
	return fs, func() {
		if err := serve(&shared, &srv, &models, *addr, opts); err != nil {
			log.Fatal(err)
		}
	}
}

func serve(shared *fedcli.Shared, srv *fedcli.Server, models *fedcli.ModelFiles, addr string, opts simnet.ServerOptions) error {
	cfg, spec, _, test, err := shared.Build()
	if err != nil {
		return err
	}
	opts.Token = shared.Token
	opts.Events = func(e simnet.Event) {
		// Membership is the operator's business; per-generation traffic
		// would be a line per party per round.
		if e.Kind != simnet.Shipped && e.Kind != simnet.Answered {
			log.Printf("fedserver: %v", e)
		}
	}
	if snapPath := srv.SnapshotPath(); snapPath != "" {
		if err := os.MkdirAll(srv.CheckpointDir, 0o755); err != nil {
			return err
		}
		if snap, err := fl.LoadSnapshotFile(snapPath); err == nil {
			// Refuse a snapshot from a different experiment before any
			// party is admitted: resuming would silently change the math.
			if got, want := snap.ConfigFingerprint, fl.ConfigFingerprint(cfg); got != want {
				return &fl.SnapshotMismatchError{Want: want, Got: got}
			}
			opts.Resume = snap
			fmt.Printf("fedserver: restored snapshot at round %d/%d from %s\n", snap.Round, cfg.Rounds, snapPath)
		} else if !errors.Is(err, os.ErrNotExist) {
			// A snapshot that exists but fails its integrity checks is a
			// hard stop: training from garbage is worse than not resuming.
			return err
		}
		opts.Checkpoint = func(snap *fl.FederationSnapshot) error {
			return fl.WriteSnapshotFile(snapPath, snap)
		}
		opts.CheckpointEvery = srv.CheckpointEvery
	}
	if opts.Resume == nil {
		// A restored snapshot carries the state; -load-model only seeds a
		// fresh run.
		if opts.InitialState, err = models.Initial(os.Stdout); err != nil {
			return err
		}
	}
	ln, err := simnet.Listen(addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	ln.ServerOptions = opts

	mode := "synchronous rounds"
	if cfg.AsyncBuffer > 0 {
		mode = fmt.Sprintf("buffered-async, new global every %d folds", cfg.AsyncBuffer)
	}
	fmt.Printf("fedserver: listening on %s for %d parties (%s on %s, %s; %s), wire protocol v%d (admits >= v%d)\n",
		ln.Addr(), shared.Parties, cfg.Algorithm, shared.Dataset, shared.Partition, mode, simnet.ProtoVersion, simnet.MinProtoVersion)
	res, err := ln.AcceptAndRun(shared.Parties, cfg, spec, test)
	if err != nil {
		return err
	}
	shared.PrintResult(os.Stdout, res)
	return models.Write(os.Stdout, res)
}
