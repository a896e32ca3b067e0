package tensor

import (
	"runtime"
	"sync"
)

// Compute is an explicit kernel compute budget: the maximum goroutine
// fan-out any single kernel call may use. Independent consumers —
// per-client model replicas, evaluator shards, concurrent simulations in
// one process — each carry their own budget; there is no process-wide
// knob to clobber.
//
// The zero value means "use GOMAXPROCS at call time", which is the right
// default for a model that has the machine to itself. A federation running
// K clients concurrently gives each client Compute{Workers: GOMAXPROCS/K}
// so clients x kernel goroutines never exceeds the machine.
//
// Compute is a small value type: copy it freely, hang it off long-lived
// objects (models, workspaces), and call kernels as methods on it:
//
//	cmp := tensor.Compute{Workers: 2}
//	cmp.MatMulInto(dst, a, b)
type Compute struct {
	// Workers caps the goroutine fan-out of a kernel call; <= 0 means
	// GOMAXPROCS at call time.
	Workers int
}

// workers resolves the budget to a concrete fan-out for this call.
func (c Compute) workers() int {
	w := runtime.GOMAXPROCS(0)
	if c.Workers > 0 && c.Workers < w {
		w = c.Workers
	}
	return w
}

// Resolve returns the concrete worker count the budget allows right now:
// min(Workers, GOMAXPROCS), or GOMAXPROCS when unset.
func (c Compute) Resolve() int { return c.workers() }

// Split divides the budget across n concurrent consumers: each gets
// max(1, workers/n). It is the oversubscription guard for fan-out sites
// (concurrent clients, evaluator shards): per-consumer budgets multiply
// out to at most the parent budget.
func (c Compute) Split(n int) Compute {
	if n < 1 {
		n = 1
	}
	per := c.workers() / n
	if per < 1 {
		per = 1
	}
	return Compute{Workers: per}
}

// parallelChunks splits [0,n) into one contiguous chunk per worker and
// runs body on each concurrently. With one worker the body runs inline.
func parallelChunks(workers, n int, body func(c0, c1 int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for c0 := 0; c0 < n; c0 += chunk {
		c1 := c0 + chunk
		if c1 > n {
			c1 = n
		}
		wg.Add(1)
		go func(c0, c1 int) {
			defer wg.Done()
			body(c0, c1)
		}(c0, c1)
	}
	wg.Wait()
}
