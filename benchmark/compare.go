package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict applies a metric's direction and bound to a pair of medians.
// ratio is b/a. "unchanged" becomes "unresolved" when the recorded
// run-to-run spread is wider than the bound: the pair then cannot tell
// no-change from a change of the bound's size.
func verdict(m metric, a, b, spread float64) (ratio float64, v string) {
	if a == 0 {
		if b == 0 {
			return 1, "unchanged"
		}
		return 0, "unresolved"
	}
	ratio = b / a
	gain := ratio - 1 // positive is better
	if m.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain < -m.Bound:
		return ratio, "worse"
	case gain > m.Bound:
		return ratio, "better"
	case spread > m.Bound:
		return ratio, "unresolved"
	}
	return ratio, "unchanged"
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints one row per workload × end-to-end metric and returns
// 1 if any row is worse, or a synchronous final-state digest differs
// between two runs of one commit and seed, else 0.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("a: %s  commit %s  seed %d\nb: %s  commit %s  seed %d\n", args[0], a.Env.Commit, a.Env.Seed, args[1], b.Env.Commit, b.Env.Seed)
	fmt.Printf("%-16s %-20s %14s %14s %18s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "verdict")
	worse := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-16s missing from one side\n", w.Name)
			worse++
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd.Metrics[m.Name].Value, wb.EndToEnd.Metrics[m.Name].Value
			spread := 0.0
			for _, d := range []*wireDetail{wa.EndToEnd.Detail, wb.EndToEnd.Detail} {
				if d != nil {
					spread = max(spread, d.Spread[m.Name])
				}
			}
			ratio, v := verdict(m, va, vb, spread)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %9.4f of %-8.4g  %s (bound %.2f, %s is better)\n",
				w.Name, m.Name, va, vb, ratio, va, v, m.Bound, m.Better)
		}
		da, db := wa.EndToEnd.Detail, wb.EndToEnd.Detail
		if da != nil && db != nil && a.Env.Seed == b.Env.Seed && w.sync() {
			// Between two commits a new digest says the arithmetic changed,
			// which a change may mean to do; on one commit it is a defect.
			v := "identical"
			if da.Digest != db.Digest {
				v = "DIFFERENT"
				if a.Env.Commit == b.Env.Commit {
					worse++
				}
			}
			fmt.Printf("%-16s %-20s %14.8s %14.8s %18s  %s\n", w.Name, "final-state digest", da.Digest, db.Digest, "", v)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
