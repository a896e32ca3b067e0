package fl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// localUpdatePins are the digests TestLocalUpdatePin compares against, one
// per case. A change to the local update that moves any of them moves the
// arithmetic of that case.
var localUpdatePins = map[string]string{
	"fedavg/vgg/f64":            "a24e39dcf035701b",
	"fedavg/mlp/f64":            "83b6750e105b207e",
	"fedprox/vgg/f64":           "a9476dac46146b2c",
	"fedprox/mlp/f64":           "94eed3d96a95bd43",
	"scaffold/vgg/f64":          "e08dde9066346b22",
	"scaffold/mlp/f64":          "bd9fd464f88d1f77",
	"fednova/vgg/f64":           "a24e39dcf035701b",
	"fednova/mlp/f64":           "83b6750e105b207e",
	"feddyn/vgg/f64":            "80f925efa6962452",
	"feddyn/mlp/f64":            "b30ef7958124c07f",
	"moon/vgg/f64":              "e2e6cdfde1fa247b",
	"moon/mlp/f64":              "31d965b36114ea14",
	"scaffold-gradient/vgg/f64": "81608999bd98f8a5",
	"fedavg+keep-bn/vgg/f64":    "2ec74e0832c95abf",
	"moon+keep-bn/vgg/f64":      "317ef98f5516bd4a",
	"dp/vgg/f64":                "0e6a5a03d3cf5b2c",
	"topk/vgg/f64":              "da0c907a2a165570",

	"fedavg/vgg/f32":            "69913fd9d2dc6deb",
	"fedavg/mlp/f32":            "6acbc22721c52bb8",
	"fedprox/vgg/f32":           "e3ed50c15bc33f9e",
	"fedprox/mlp/f32":           "f9b0519da93af201",
	"scaffold/vgg/f32":          "41e64ae69a896a5d",
	"scaffold/mlp/f32":          "056e87f32631a30e",
	"fednova/vgg/f32":           "69913fd9d2dc6deb",
	"fednova/mlp/f32":           "6acbc22721c52bb8",
	"feddyn/vgg/f32":            "c68f98db0483a094",
	"feddyn/mlp/f32":            "33f90ceb55455bea",
	"moon/vgg/f32":              "1ec3c28bc7f009ea",
	"moon/mlp/f32":              "5a10e16dd948e89a",
	"scaffold-gradient/vgg/f32": "bf54a7f112387742",
	"fedavg+keep-bn/vgg/f32":    "e5e4a2f66a636a3d",
	"moon+keep-bn/vgg/f32":      "0e2202a5d4173b64",
	"dp/vgg/f32":                "9749f9c65cefeb81",
	"topk/vgg/f32":              "599a5fc648a633f5",
}

// TestLocalUpdatePin freezes Client.TrainStream bit for bit: for every
// algorithm in both dtypes on a batch-norm model (the small VGG) and on the
// MLP, plus SCAFFOLD's option (i), the FedBN-style ablation under FedAvg
// and MOON, DP sanitization and top-k compression, it hashes each round's
// (Delta, DeltaC, Tau, TrainLoss, Kept) over two rounds — the global state (and
// SCAFFOLD's server control) moved between them, so the second round reads
// everything the first one left on the client.
func TestLocalUpdatePin(t *testing.T) {
	train, _, err := data.Load("mnist", data.Config{TrainN: 48, TestN: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]nn.ModelSpec{
		"vgg": {Kind: nn.KindVGG, Channels: 1, Height: 16, Width: 16, Classes: 10},
		"mlp": {Kind: nn.KindMLP, InputDim: train.FeatLen, Classes: 10},
	}
	type pinCase struct {
		name  string
		model string
		dt    tensor.DType
		mod   func(*Config)
	}
	var cases []pinCase
	dtypes := map[tensor.DType]string{tensor.Float64: "f64", tensor.Float32: "f32"}
	for dt, dn := range dtypes {
		for _, alg := range ExtendedAlgorithms() {
			for model := range models {
				cases = append(cases, pinCase{fmt.Sprintf("%s/%s/%s", alg, model, dn), model, dt,
					func(c *Config) { c.Algorithm = alg }})
			}
		}
		for name, mod := range map[string]func(*Config){
			"scaffold-gradient": func(c *Config) { c.Algorithm, c.Variant = Scaffold, ScaffoldGradient },
			"fedavg+keep-bn":    func(c *Config) { c.KeepBNStatsLocal = true },
			"moon+keep-bn":      func(c *Config) { c.Algorithm, c.KeepBNStatsLocal = Moon, true },
			"dp":                func(c *Config) { c.DPClip, c.DPNoise = 1, 0.5 },
			"topk":              func(c *Config) { c.CompressTopK = 0.1 },
		} {
			cases = append(cases, pinCase{fmt.Sprintf("%s/vgg/%s", name, dn), "vgg", dt, mod})
		}
	}
	got := map[string]string{}
	for _, tc := range cases {
		cfg := quickCfg(FedAvg)
		cfg.DType = tc.dt
		tc.mod(&cfg)
		cfg, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		spec := models[tc.model]
		spec.DType = tc.dt
		cl := NewClient(0, train, spec, rng.New(5))
		global := nn.Build(spec, rng.New(6)).State()
		var serverC []float64
		if cfg.Algorithm == Scaffold {
			serverC = make([]float64, cl.ParamCount())
			r := rng.New(8)
			for i := range serverC {
				serverC[i] = 0.01 * r.Normal()
			}
		}
		h := fnv.New64a()
		word := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for round := 0; round < 2; round++ {
			p := cl.TrainStream(global, serverC, cfg)
			u := p.Update()
			for _, v := range [][]float64{u.Delta, u.DeltaC} {
				word(uint64(len(v)))
				for _, f := range v {
					word(math.Float64bits(f))
				}
			}
			word(uint64(u.Tau))
			word(math.Float64bits(u.TrainLoss))
			word(uint64(u.Kept))
			for i := range global {
				global[i] -= u.Delta[i]
			}
			for i := range u.DeltaC {
				serverC[i] += 0.5 * u.DeltaC[i]
			}
			p.Release()
		}
		got[tc.name] = fmt.Sprintf("%016x", h.Sum64())
	}
	for _, tc := range cases {
		if want := localUpdatePins[tc.name]; got[tc.name] != want {
			t.Errorf("%s: local update digest %s, want %q", tc.name, got[tc.name], want)
		}
	}
	for name := range localUpdatePins {
		if _, ok := got[name]; !ok {
			t.Errorf("pin %s has no case", name)
		}
	}
}

// poolDropsPuts reports whether sync.Pool is discarding Puts, as it does
// on purpose under the race detector: pooled round buffers are then
// re-allocated, and an allocation count measures the detector.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return true
		}
	}
	return false
}

// TestTrainStreamAllocs bounds the heap allocations of a steady-state
// FedAvg round on the paper's CNN — TrainStream then Release, the client
// warmed up — in both dtypes, on one kernel worker and on two.
//
// One worker: layer scratch grows in place and round vectors come back
// from the pool, so a round allocates one object, the PendingUpdate it
// returns. AllocsPerRun runs at GOMAXPROCS=1, where the kernels fan out to
// no worker goroutines; a per-batch allocation in the training loop shows
// up here as four per round.
//
// Two workers (GOMAXPROCS 2, Compute{Workers: 2}): every kernel call big
// enough to fan out allocates its body closure, its WaitGroup and one
// goroutine closure per worker: a step (one batch) measures 12.25
// mallocs in steady state (49 per round), and up to 13.5 when the runtime
// makes a new goroutine rather than reuse one. maxParallelAllocsPerStep
// sits above that tail; an offset table or padded image the pools do not
// recycle costs at least one malloc per conv call, and a step makes
// several, so it fails.
func TestTrainStreamAllocs(t *testing.T) {
	if poolDropsPuts() {
		t.Skip("sync.Pool is dropping Puts (race detector): pooled round buffers are re-allocated")
	}
	const (
		maxAllocs                = 1
		maxParallelAllocsPerStep = 15
		rounds, stepsPerRound    = 10, 4 // 128 samples in batches of 32
	)
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		ds := benchDataset(128)
		spec := nn.ModelSpec{Kind: nn.KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10, DType: dt}
		cfg, err := Config{Algorithm: FedAvg, LocalEpochs: 1, BatchSize: 32, LR: 0.01, Momentum: 0.9, DType: dt}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		root := rng.New(7)
		c := NewClient(0, ds, spec, root.Split())
		global := nn.Build(spec, root.Split()).State()
		round := func() { c.TrainStream(global, nil, cfg).Release() }
		for i := 0; i < 3; i++ {
			round()
		}
		if got := testing.AllocsPerRun(20, round); got > maxAllocs {
			t.Errorf("%v: a steady-state TrainStream+Release allocates %v times, want <= %v", dt, got, maxAllocs)
		}

		// AllocsPerRun would pin GOMAXPROCS to 1; count the process's
		// mallocs around the parallel rounds instead, with the collector
		// off so that no collection empties the pools mid-count.
		prev := runtime.GOMAXPROCS(2)
		c.SetComputeBudget(tensor.Compute{Workers: 2})
		for i := 0; i < 3; i++ {
			round()
		}
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(prev)
		perStep := float64(after.Mallocs-before.Mallocs) / (rounds * stepsPerRound)
		t.Logf("%v: %.2f mallocs per step on two workers", dt, perStep)
		if perStep > maxParallelAllocsPerStep {
			t.Errorf("%v: a steady-state step on two workers allocates %.2f times, want <= %d", dt, perStep, maxParallelAllocsPerStep)
		}
	}
}
