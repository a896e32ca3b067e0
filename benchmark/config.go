package main

import (
	"flag"
	"io"
	"strconv"
	"strings"

	"github.com/niid-bench/niidbench/internal/fedcli"
	"github.com/niid-bench/niidbench/internal/fl"
)

// buildConfig is the only place the benchmark constructs an fl.Config. It
// goes through the flag names fedserver and fedparty share, because those
// names are the contract that outlives a regrouping of Config's fields;
// DType, which has no flag, is the one field set directly.
//
// Shared.Build also regenerates a dataset and partition from its flags.
// The benchmark brings its own (see gen.go), so Build is pointed at the
// smallest built-in family and its data is dropped.
func buildConfig(w *workload, rounds int) (fl.Config, *fedcli.Shared, error) {
	s := &fedcli.Shared{}
	fs := flag.NewFlagSet(w.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Register(fs)
	args := append(strings.Fields(w.Flags),
		"-rounds", strconv.Itoa(rounds),
		"-dataset", "fcube", "-train", "64", "-test", "8")
	if err := fs.Parse(args); err != nil {
		return fl.Config{}, nil, err
	}
	cfg, _, _, _, err := s.Build()
	if err != nil {
		return fl.Config{}, nil, err
	}
	cfg.DType = w.DType
	return cfg, s, nil
}
