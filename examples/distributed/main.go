// Distributed: runs the federation over real loopback TCP sockets — the
// server accepts one connection per data silo and every model exchange is
// serialized onto the wire, so the communication numbers are measured
// bytes, not estimates. This is the deployment shape for actual cross-silo
// setups (run each party in its own process and point DialPartyOpts at
// the server's address).
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"sync"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func main() {
	train, test, err := data.Load("adult", data.Config{TrainN: 1500, TestN: 500, Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := data.Model("adult")
	if err != nil {
		log.Fatal(err)
	}
	// Quantity skew: silos of very different sizes (databases with
	// different capacities, per the paper's decision tree).
	strat := partition.Strategy{Kind: partition.Quantity, Beta: 0.5}
	part, locals, err := strat.Split(train, 6, rng.New(37))
	if err != nil {
		log.Fatal(err)
	}
	for i, idx := range part {
		fmt.Printf("silo %d holds %d records\n", i, len(idx))
	}

	cfg := fl.Config{
		Algorithm:   fl.FedProx,
		Rounds:      6,
		LocalEpochs: 3,
		BatchSize:   32,
		LR:          0.01,
		Mu:          0.01,
		Seed:        41,
	}

	ln, err := simnet.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("\nserver listening on %s\n", ln.Addr())

	var wg sync.WaitGroup
	for i, ds := range locals {
		wg.Add(1)
		go func(i int, ds *data.Dataset) {
			defer wg.Done()
			if err := simnet.DialPartyOpts(ln.Addr(), i, ds, spec, cfg, simnet.PartySeed(cfg.Seed, i), simnet.PartyOptions{}); err != nil {
				log.Printf("party %d: %v", i, err)
			}
		}(i, ds)
	}
	res, err := ln.AcceptAndRun(len(locals), cfg, spec, test)
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for _, m := range res.Curve {
		fmt.Printf("round %d: accuracy %.3f, %d bytes on the wire\n",
			m.Round, m.TestAccuracy, m.CommBytes)
	}
	fmt.Printf("\nfinal accuracy %.1f%% — %.2f KB per round measured on the sockets\n",
		res.FinalAccuracy*100, res.CommBytesPerRound/1024)
}
