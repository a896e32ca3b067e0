// Command fedparty runs one data silo of a multi-process federated
// deployment: it regenerates its local shard deterministically from the
// shared flags, dials the fedserver address and participates in training
// until the server shuts the federation down.
//
// See cmd/fedserver for the launch recipe. The only party-specific flags
// are -index (which shard this process owns) and -addr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/simnet"
)

func main() {
	fs, join := command()
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
	join()
}

// command declares fedparty's flags and returns them with the party run
// that reads them once parsed.
func command() (*flag.FlagSet, func()) {
	fs := flag.NewFlagSet("fedparty", flag.ExitOnError)
	var shared fedcli.Shared
	shared.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "fedserver address to dial")
	index := fs.Int("index", 0, "this party's shard index in [0, parties)")
	return fs, func() { join(&shared, *addr, *index) }
}

func join(shared *fedcli.Shared, addr string, index int) {
	cfg, spec, locals, _, err := shared.Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := shared.Validate(index); err != nil {
		log.Fatal(err)
	}
	local := locals[index]
	fmt.Printf("fedparty %d: %d local samples, dialing %s (wire protocol v%d)\n",
		index, local.Len(), addr, simnet.ProtoVersion)
	if err := simnet.DialPartyOpts(addr, index, local, spec, cfg, shared.PartySeed(index), shared.PartyOptions()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fedparty %d: federation complete\n", index)
}
