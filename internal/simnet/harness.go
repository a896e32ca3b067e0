package simnet

import (
	"fmt"
	"sync"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
)

// This file stands a whole federation up in one process: the server on the
// calling goroutine, one goroutine per party, over in-memory pipes
// (RunLocal) or loopback TCP (RunLoopback). Party i trains on locals[i]
// with PartySeed(cfg.Seed, i) on either transport, which is what lets a
// synchronous run be compared bit for bit across them.

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

// RunLocal runs a full federation over in-memory pipes: one goroutine per
// party plus the server loop on the calling goroutine. It returns the same
// Result type as fl.Simulation, with CommBytes measured from the actual
// serialized traffic.
func RunLocal(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset) (*fl.Result, error) {
	fed, err := newFederation(cfg, spec, test, len(locals), ServerOptions{})
	if err != nil {
		return nil, err
	}
	fed.local = true
	serverSide := make([]*CountingConn, len(locals))
	partySide := make([]Conn, len(locals))
	for i := range locals {
		s, p := Pipe()
		serverSide[i], partySide[i] = NewCountingConn(s), p
	}
	res, partyErrs, err := runInProcess(len(locals),
		func() (*fl.Result, error) { return fed.servePipes(serverSide) },
		func(i int) error {
			// Close the party end when the session is over — the async
			// server's receivers drain each conn until EOF, and the pipe
			// only delivers one once an end closes (the TCP party's dial
			// loop closes its socket the same way).
			defer partySide[i].Close()
			return ServeParty(partySide[i], i, locals[i], spec, fed.Cfg, PartySeed(fed.Cfg.Seed, i), "")
		})
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

// servePipes is the pipe transport's server side: the serial hello
// handshake over conns — one per party, each a trusted in-process peer —
// then the run, then the teardown. The conns a failed handshake never got
// to are closed here; the admitted ones belong to the table.
func (f *Federation) servePipes(conns []*CountingConn) (*fl.Result, error) {
	defer f.table.shutdown()
	for i, c := range conns {
		if err := f.greet(c); err != nil {
			for _, rest := range conns[i:] {
				_ = rest.Close()
			}
			return nil, err
		}
	}
	return f.run()
}

// RunLoopback is RunLocal's loopback-TCP twin: the same federation with
// every party dialing the server over a real socket, so every model
// exchange crosses the full serialization and framing path. opts
// configures the server as it would a ServerListener; party, when non-nil,
// returns party i's dial options (faults, rejoin policy). Party errors are
// returned by index rather than folded into err, because under fault
// injection a party failing is a result, not a failure.
func RunLoopback(cfg fl.Config, spec nn.ModelSpec, locals []*data.Dataset, test *data.Dataset, opts ServerOptions, party func(i int) PartyOptions) (*fl.Result, []error, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ln.ServerOptions = opts
	return runInProcess(len(locals),
		func() (*fl.Result, error) {
			// Closing the listener is what stops AcceptAndRun's accept loop
			// and turns a rejoining party's next redial into a refusal.
			defer ln.Close()
			return ln.AcceptAndRun(len(locals), cfg, spec, test)
		},
		func(i int) error {
			var po PartyOptions
			if party != nil {
				po = party(i)
			}
			return DialPartyOpts(ln.Addr(), i, locals[i], spec, cfg, PartySeed(cfg.Seed, i), po)
		})
}
