package simnet

import (
	"fmt"
	"net"
	"sync"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// This file stands a whole federation up in one process: the server on the
// calling goroutine, one goroutine per party, over in-memory pipes
// (RunLocal) or loopback TCP (RunLoopback). The two differ only in the
// listener the server accepts on and the dial its parties use. Party i
// trains on locals[i] with PartySeed(cfg.Seed, i) on either transport,
// which is what lets a synchronous run be compared bit for bit across
// them.

// runInProcess runs serve on the calling goroutine beside one goroutine
// per party and waits for every party. The server's error is err; the
// parties' come back by index.
func runInProcess(parties int, serve func() (*fl.Result, error), party func(i int) error) (res *fl.Result, partyErrs []error, err error) {
	partyErrs = make([]error, parties)
	var wg sync.WaitGroup
	for i := range partyErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			partyErrs[i] = party(i)
		}()
	}
	res, err = serve()
	wg.Wait()
	return res, partyErrs, err
}

// Run is the in-process runner rule: a config that needs a wire
// (fl.Config.NeedsWire) federates over in-memory pipes (RunLocal), where
// frames are really encoded and counted; every other one runs as the
// lockstep fl.Simulation.
func Run(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) (*fl.Result, error) {
	if cfg.NeedsWire() {
		return RunLocal(cfg, spec, locals, test)
	}
	sim, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// RunLocal runs a full federation in this process: one goroutine per
// party plus the server loop on the calling goroutine, the parties dialing
// an in-memory listener of framed net.Pipe conns. It returns the same
// Result type as fl.Simulation, with CommBytes measured from the actual
// serialized traffic.
func RunLocal(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) (*fl.Result, error) {
	ln, dial := listenMem()
	res, partyErrs, err := federate(ln, dial, cfg, spec, locals, test, nil)
	if err != nil {
		return nil, err
	}
	for i, err := range partyErrs {
		if err != nil {
			return nil, fmt.Errorf("simnet: party %d failed: %w", i, err)
		}
	}
	return res, nil
}

// RunLoopback is RunLocal's loopback-TCP twin: the same federation with
// every party dialing the server over a real socket. opts configures the
// server as it would a ServerListener; party, when non-nil, returns party
// i's dial options (faults, rejoin policy). Party errors are returned by
// index rather than folded into err, because under fault injection a
// party failing is a result, not a failure.
func RunLoopback(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, opts ServerOptions, party func(i int) PartyOptions) (*fl.Result, []error, error) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ln.ServerOptions = opts
	return federate(ln, func() (net.Conn, error) { return net.Dial("tcp", ln.Addr()) }, cfg, spec, locals, test, party)
}

// federate is the one in-process harness: the server accepts on ln while
// party i dials with dial, under party(i)'s options when party is non-nil.
// Every party trains concurrently in this process, so each gets its share
// of the run's cores (Cfg.Parallelism, GOMAXPROCS by default) — the same
// oversubscription guard as fl.Simulation.
func federate(ln *ServerListener, dial func() (net.Conn, error), cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, party func(i int) PartyOptions) (*fl.Result, []error, error) {
	fed, err := newFederation(cfg, spec, test, len(locals), ln.ServerOptions)
	if err != nil {
		_ = ln.Close()
		return nil, nil, err
	}
	cfg = fed.Cfg
	share := tensor.Compute{Workers: cfg.Parallelism}.Split(len(locals))
	return runInProcess(len(locals),
		func() (*fl.Result, error) {
			// Closing the listener is what stops the accept loop and turns a
			// rejoining party's next redial into a refusal.
			defer ln.Close()
			return fed.acceptAndRun(ln.accept)
		},
		func(i int) error {
			var po PartyOptions
			if party != nil {
				po = party(i)
			}
			err := dialParty(dial, i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), share, po)
			select {
			case <-fed.table.full:
			default:
				// The party may have left its seat empty for good — no
				// other party can take it — so fail the accept loop, which
				// hangs up on the parties already admitted.
				_ = ln.Close()
			}
			return err
		})
}
