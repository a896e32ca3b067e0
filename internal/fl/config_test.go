package fl

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// TestNormalize is Config's validity table: what every zero field
// defaults to, every field's out-of-range arm, and every cross-field rule
// — one row each. A row with err set must fail with that text; otherwise
// the normalized config must equal want (when given) and NeedsWire must
// answer wire.
func TestNormalize(t *testing.T) {
	defaults := Config{
		Algorithm: FedAvg, Rounds: 50, LocalEpochs: 10, BatchSize: 64, LR: 0.01, Momentum: 0.9,
		SampleFraction: 1, Variant: ScaffoldReuse, ServerLR: 1, Seed: 1, Parallelism: runtime.GOMAXPROCS(0),
		EvalEvery: 1, Alpha: 0.01, MoonMu: 1, ServerOptimizer: ServerSGD, Sampling: SampleRandom,
		MinParties: 1, Codec: CodecF64, QuorumWait: 30 * time.Second,
	}
	with := func(mutate func(*Config)) *Config {
		c := defaults
		mutate(&c)
		return &c
	}
	for _, row := range []struct {
		name string
		in   Config
		err  string
		want *Config
		wire bool
	}{
		{name: "zero value takes the paper's defaults", in: Config{}, want: &defaults},
		{name: "non-positive sizes fall back to the defaults",
			in: Config{Rounds: -3, LocalEpochs: -1, BatchSize: -1, LR: -1, Parallelism: -1, EvalEvery: -1}, want: &defaults},
		{name: "extension algorithms keep their own defaults", in: Config{Algorithm: Moon},
			want: with(func(c *Config) { c.Algorithm = Moon })},

		{name: "unknown algorithm", in: Config{Algorithm: "bogus"}, err: "unknown algorithm"},
		{name: "negative momentum", in: Config{Momentum: -1}, err: "negative momentum"},
		{name: "fraction above 1", in: Config{SampleFraction: 1.5}, err: "sample fraction"},
		{name: "negative fraction", in: Config{SampleFraction: -0.5}, err: "sample fraction"},
		{name: "negative mu", in: Config{Mu: -1}, err: "negative mu"},
		{name: "negative alpha", in: Config{Alpha: -1}, err: "negative alpha"},
		{name: "unknown server optimizer", in: Config{ServerOptimizer: "bogus"}, err: "unknown server optimizer"},
		{name: "unknown sampling", in: Config{Sampling: "bogus"}, err: "unknown sampling strategy"},
		{name: "negative DP clip", in: Config{DPClip: -1}, err: "negative DP parameter"},
		{name: "negative DP noise", in: Config{DPNoise: -1}, err: "negative DP parameter"},
		{name: "top-k of 1 keeps everything", in: Config{CompressTopK: 1}, err: "CompressTopK"},
		{name: "top-k above 1", in: Config{CompressTopK: 1.5}, err: "CompressTopK"},
		{name: "negative top-k", in: Config{CompressTopK: -0.1}, err: "CompressTopK"},
		{name: "negative chunk size", in: Config{ChunkSize: -1}, err: "negative chunk size"},
		{name: "negative quorum", in: Config{MinParties: -1}, err: "negative quorum"},
		{name: "negative async buffer", in: Config{AsyncBuffer: -1}, err: "negative async buffer"},
		{name: "unknown codec", in: Config{Codec: "f16"}, err: "unknown codec"},
		{name: "negative quorum wait", in: Config{QuorumWait: -1}, err: "negative quorum wait"},
		{name: "unknown dtype", in: Config{DType: tensor.DType(7)}, err: "unknown dtype"},

		// Integer quantization's one-scale-per-frame zeroes top-k's small
		// survivors; the lossless and the per-element codecs do not.
		{name: "int8 x top-k", in: Config{Codec: CodecInt8, CompressTopK: 0.1}, err: "cannot be combined"},
		{name: "int4 x top-k", in: Config{Codec: CodecInt4, CompressTopK: 0.1}, err: "cannot be combined"},
		{name: "f32 x top-k", in: Config{Codec: CodecF32, CompressTopK: 0.1}, wire: true},
		{name: "f64 x top-k", in: Config{Codec: CodecF64, CompressTopK: 0.1}},

		// Async mode trains every live party continuously: a fraction is
		// accepted and kept (it still fingerprints) but no async code path
		// reads it.
		{name: "async ignores the sample fraction", in: Config{AsyncBuffer: 2, SampleFraction: 0.5}, wire: true,
			want: with(func(c *Config) { c.AsyncBuffer, c.SampleFraction = 2, 0.5 })},

		// The needs-a-wire rule: buffered-async, or any codec but f64.
		{name: "default codec, sync", in: Config{}},
		{name: "f64, sync", in: Config{Codec: CodecF64}},
		{name: "f32, sync", in: Config{Codec: CodecF32}, wire: true},
		{name: "int8, sync", in: Config{Codec: CodecInt8}, wire: true},
		{name: "int4, sync", in: Config{Codec: CodecInt4}, wire: true},
		{name: "default codec, async", in: Config{AsyncBuffer: 1}, wire: true},
		{name: "f64, async", in: Config{Codec: CodecF64, AsyncBuffer: 1}, wire: true},
		{name: "f32, async", in: Config{Codec: CodecF32, AsyncBuffer: 1}, wire: true},
		{name: "int8, async", in: Config{Codec: CodecInt8, AsyncBuffer: 1}, wire: true},
		{name: "int4, async", in: Config{Codec: CodecInt4, AsyncBuffer: 1}, wire: true},
	} {
		got, err := row.in.Normalize()
		if row.err != "" {
			if err == nil || !strings.Contains(err.Error(), row.err) {
				t.Errorf("%s: error %v, want one containing %q", row.name, err, row.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		if row.want != nil && got != *row.want {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, *row.want)
		}
		if row.in.NeedsWire() != row.wire || got.NeedsWire() != row.wire {
			t.Errorf("%s: NeedsWire raw %v normalized %v, want %v", row.name, row.in.NeedsWire(), got.NeedsWire(), row.wire)
		}
	}
}

// TestSimulationRefusesWireConfigs: the in-process lockstep run has no
// frames to encode and no arrival order, so a config that asks for either
// is an error, not a silent f64 synchronous run.
func TestSimulationRefusesWireConfigs(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"codec": func(c *Config) { c.Codec = CodecInt8 },
		"async": func(c *Config) { c.AsyncBuffer = 2 },
	} {
		cfg := quickCfg(FedAvg)
		mutate(&cfg)
		sim, _ := testFederation(t, partition.Strategy{Kind: partition.Homogeneous}, 3, cfg)
		if _, err := sim.Run(); err == nil || !strings.Contains(err.Error(), "simnet transport") {
			t.Fatalf("%s: Simulation.Run = %v, want a needs-a-transport error", name, err)
		}
	}
}

// TestFingerprintCoversEveryField perturbs each Config field in turn and
// requires the fingerprint to move, unless the field is on the one
// explicit list of transport-only knobs — so a field added to Config is
// either hashed or consciously listed here.
func TestFingerprintCoversEveryField(t *testing.T) {
	transportOnly := map[string]bool{
		"Parallelism": true, "MinParties": true, "QuorumWait": true,
		"ChunkSize": true, // under a lossless codec; the lossy rows are TestConfigFingerprint's
	}
	base := quickCfg(FedAvg)
	base.SampleFraction, base.CompressTopK = 0.5, 0.5 // leave room to perturb inside the valid range
	base, err := base.Normalize()                     // so a perturbation never lands on a default
	if err != nil {
		t.Fatal(err)
	}
	fp := ConfigFingerprint(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			// Another valid value of each enum (an invalid one would fail
			// Normalize and hash unnormalized).
			f.SetString(map[string]string{"Algorithm": string(Scaffold), "ServerOptimizer": string(ServerAdam),
				"Sampling": string(SampleStratified), "Codec": string(CodecF32)}[typ.Field(i).Name])
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Float64:
			f.SetFloat(f.Float()/2 + 0.125)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64, reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s has kind %s this test cannot perturb; extend it", typ.Field(i).Name, f.Kind())
		}
		if _, err := c.Normalize(); err != nil {
			t.Fatalf("perturbing %s made the config invalid: %v", typ.Field(i).Name, err)
		}
		if moved := ConfigFingerprint(c) != fp; moved == transportOnly[typ.Field(i).Name] {
			t.Errorf("%s: fingerprint moved = %v, listed transport-only = %v", typ.Field(i).Name, moved, !moved)
		}
	}
}
