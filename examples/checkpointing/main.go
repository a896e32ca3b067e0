// Checkpointing: train a federated model for a few rounds, save the global
// state to disk, then resume training in a fresh federation — the workflow
// for long cross-silo trainings that survive restarts.
//
//	go run ./examples/checkpointing
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func main() {
	train, test, err := data.Load("fmnist", data.Config{TrainN: 800, TestN: 300, Seed: 51})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := data.Model("fmnist")
	if err != nil {
		log.Fatal(err)
	}
	strat := partition.Strategy{Kind: partition.LabelDirichlet, Beta: 0.5}
	_, locals, err := strat.Split(train, 6, rng.New(53))
	if err != nil {
		log.Fatal(err)
	}
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 2,
		BatchSize: 32, LR: 0.01, Seed: 55,
	}

	// Phase 1: train and checkpoint.
	sim, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "niidbench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "global.niidb")
	if err := fl.WriteSnapshotFile(path, &fl.FederationSnapshot{State: res.FinalState}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: accuracy %.3f after %d rounds; checkpointed %d values to %s\n",
		res.FinalAccuracy, cfg.Rounds, len(res.FinalState), path)

	// Phase 2: a brand new federation resumes from the checkpoint.
	snap, err := fl.LoadSnapshotFile(path)
	if err != nil {
		log.Fatal(err)
	}
	sim2, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim2.SetInitialState(snap.State); err != nil {
		log.Fatal(err)
	}
	res2, err := sim2.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: resumed and reached accuracy %.3f after %d more rounds\n",
		res2.FinalAccuracy, cfg.Rounds)
	if res2.FinalAccuracy+0.02 < res.FinalAccuracy {
		fmt.Println("warning: accuracy regressed after resume")
	} else {
		fmt.Println("resume preserved progress, training continued from the checkpoint")
	}
}
