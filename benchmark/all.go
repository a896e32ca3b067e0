package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment stamps a results file with where its numbers come from.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func stamp(o options) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown", Kernel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// workloadResults is one workload's entry in a results file: its frozen
// parameters, the untraced run and the traced run.
type workloadResults struct {
	Flags    string     `json:"flags"`
	DType    string     `json:"dtype"`
	Target   float64    `json:"target"`
	Floor    float64    `json:"floor"`
	EndToEnd wireResult `json:"end_to_end"`
	PerLayer wireResult `json:"per_layer"`
}

// results is the file `benchmark` writes and `benchmark compare` reads.
type results struct {
	Env       environment                 `json:"env"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runChild re-executes this binary for one workload and one trace
// setting, so heap state and peak RSS belong to that run alone.
func runChild(o options, w *workload, trace int) (wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return wireResult{}, err
	}
	// The child's own watchdog fires first; this is the backstop for a
	// child too stuck to run it.
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	args := []string{
		"--workload", w.Name, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--out", o.outDir, "--detail",
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res wireResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s (trace %d): no result line (%v): %w", w.Name, trace, runErr, err)
	}
	return res, nil
}

// runAll runs every workload, untraced then traced, prints every metric
// by name with its unit, applies the checks and writes the results file.
// It returns the process's exit code.
func runAll(o options) int {
	all := results{Env: stamp(o), Workloads: map[string]*workloadResults{}}
	ok := true
	for _, w := range workloads {
		wr := &workloadResults{Flags: w.Flags, DType: w.DType.String(), Target: w.Target, Floor: w.Floor}
		all.Workloads[w.Name] = wr
		for trace, dst := range []*wireResult{&wr.EndToEnd, &wr.PerLayer} {
			res, err := runChild(o, w, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				ok = false
				continue
			}
			*dst = res
			ok = ok && res.Correct
			printResult(w, trace, res)
		}
	}
	// The quantized wire has to earn its CPU: at least 6x fewer bytes.
	f64, int8 := all.Workloads["wide-f64-sync"], all.Workloads["wide-int8-sync"]
	if a, b := f64.EndToEnd.Metrics["bytes_per_round"].Value, int8.EndToEnd.Metrics["bytes_per_round"].Value; !(b > 0 && b <= a/6) {
		fmt.Printf("FAILED CHECK: wide-int8-sync moves %.0f B/round, more than a sixth of wide-f64-sync's %.0f\n", b, a)
		ok = false
	}
	path := filepath.Join(o.outDir, "results.json")
	b, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println("results written to", path)
	if !ok {
		return 1
	}
	return 0
}

func printResult(w *workload, trace int, res wireResult) {
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	kind := "end-to-end"
	if trace == 1 {
		kind = "per-layer"
	}
	fmt.Printf("%s  %s  operations %d  failed %d (share %.4f)", w.Name, kind, res.Attempted, res.Failed, share)
	if d := res.Detail; d != nil {
		fmt.Printf("  passes %d x %d rounds  digest %s", d.Passes, d.Rounds, d.Digest)
	}
	fmt.Println()
	for _, m := range declared(trace) {
		v := res.Metrics[m.Name]
		line := fmt.Sprintf("  %-26s %14.6g %-8s", m.Name, v.Value, v.Unit)
		if res.Detail != nil {
			if sp, ok := res.Detail.Spread[m.Name]; ok {
				line += fmt.Sprintf("  spread %.3f over %d passes", sp, res.Detail.Passes)
			}
		}
		if m.Moves != "" {
			line += "  -> " + m.Moves
		}
		fmt.Println(line)
	}
	if res.Detail != nil {
		for _, p := range res.Detail.Problems {
			fmt.Println("  FAILED CHECK:", p)
		}
	}
}
