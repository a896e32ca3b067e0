// Command niidlint is the repo's multichecker: it runs the four
// internal/analysis passes (codeccheck, poolcheck, detercheck,
// leakcheck) over the named packages and prints every
// finding as file:line:col: [check] message, exiting non-zero when any
// finding survives //lint:allow suppression. CI runs it via
// scripts/lint.sh next to go vet; the passes mechanize invariants vet
// cannot see — wire-codec symmetry and coverage, pooled-buffer
// ownership, map-iteration determinism, and goroutine exit paths.
//
// Usage:
//
//	niidlint [-checks codeccheck,poolcheck,...] [packages]
//
// Packages default to ./... relative to the current directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/niid-bench/niidbench/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("niidlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list the available checks and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: niidlint [-checks c1,c2] [-list] [packages]\n\nChecks:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*checksFlag)
	if err != nil {
		fmt.Fprintf(stderr, "niidlint: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "niidlint: %v\n", err)
		return 2
	}
	loader := analysis.NewLoader(wd)
	pkgs, err := loader.LoadPackages(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "niidlint: load: %v\n", err)
		return 2
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "niidlint: %s: %v\n", pkg.Path, err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "niidlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -checks flag against the registry.
func selectAnalyzers(csv string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if csv == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (run with -list for the registry)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks selected no checks")
	}
	return out, nil
}
