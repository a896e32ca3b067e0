package simnet

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/partition"
	"github.com/niid-bench/niidbench/internal/rng"
)

func TestCodecShutdown(t *testing.T) {
	b, err := Marshal(ShutdownMsg{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(ShutdownMsg); !ok {
		t.Fatalf("got %T", out)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(round, offset uint16, last bool, payload []float64) bool {
		in := GlobalChunkMsg{Round: int(round), Offset: int(offset), Total: int(offset) + len(payload),
			Last: last, Payload: payload}
		b, err := Marshal(in)
		if err != nil {
			return false
		}
		out, err := Unmarshal(b)
		if err != nil {
			return false
		}
		got := out.(GlobalChunkMsg)
		if got.Round != int(round) || got.Offset != int(offset) || got.Last != last || len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if payload[i] != got.Payload[i] && !(math.IsNaN(payload[i]) && math.IsNaN(got.Payload[i])) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("expected error for empty")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Fatal("expected error for unknown tag")
	}
	if _, err := Unmarshal([]byte{msgGlobalChunk, 1, 2}); err == nil {
		t.Fatal("expected error for truncation")
	}
	// Tags retired with the pre-v5 wire (whole-message GlobalMsg/UpdateMsg,
	// GlobalRefMsg, the quantized chunk twins) are unknown, not panics.
	for _, tag := range []byte{1, 2, 7, 9, 10} {
		if _, err := Unmarshal([]byte{tag, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
			t.Fatalf("retired tag %d decoded", tag)
		}
	}
	if _, err := Marshal(42); err == nil {
		t.Fatal("expected error for unsupported type")
	}
}

func TestPipeDuplex(t *testing.T) {
	a, b := pipe()
	// A send returns once its frame is read, so it runs beside the Recv.
	sent := make(chan error, 1)
	go func() { sent <- a.Send([]byte("hello")) }()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	go func() { sent <- b.Send([]byte("world")) }()
	got, err = a.Recv()
	if err != nil || string(got) != "world" {
		t.Fatalf("reverse direction: %q %v", got, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err == nil {
		t.Fatal("Recv on closed pipe should fail")
	}
}

// TestPipeSendAfterCloseFails pins that a closed pipe refuses every send,
// from either end, even while its buffer has room: a send that slipped
// through would look delivered to a sender whose peer is gone.
func TestPipeSendAfterCloseFails(t *testing.T) {
	for _, closer := range []int{0, 1} {
		for _, sender := range []int{0, 1} {
			for i := 0; i < 1000; i++ {
				a, b := pipe()
				ends := [2]Conn{a, b}
				ends[closer].Close()
				if err := ends[sender].Send([]byte("x")); err == nil {
					t.Fatalf("end %d closed: send %d from end %d succeeded", closer, i, sender)
				}
			}
		}
	}
}

func TestCountingConn(t *testing.T) {
	a, b := pipe()
	ca := NewCountingConn(a)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msg, _ := b.Recv()
		_ = b.Send(msg)
	}()
	if err := ca.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Recv(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ca.Sent() != 100 || ca.Received() != 100 {
		t.Fatalf("counts: sent %d recv %d", ca.Sent(), ca.Received())
	}
}

// smallFederation builds a 3-party adult federation for protocol tests.
func smallFederation(t *testing.T) (fl.Config, []*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.Homogeneous}.Split(train, 3, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.Config{Algorithm: fl.FedAvg, Rounds: 4, LocalEpochs: 2, BatchSize: 32, LR: 0.05, Seed: 5}
	return cfg, locals, test
}

func TestRunLocalMatchesLearning(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 4 {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
	if res.FinalAccuracy < 0.60 {
		t.Fatalf("accuracy %v", res.FinalAccuracy)
	}
	if res.TotalCommBytes == 0 {
		t.Fatal("no bytes counted")
	}
}

func TestRunLocalMeasuredBytesMatchAnalytic(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic estimate: 2 state vectors per party per round (down+up),
	// 8 bytes each, plus small headers.
	analytic := float64(2*res.StateCount*8) * 3
	measured := res.CommBytesPerRound
	if measured < analytic || measured > analytic*1.01 {
		t.Fatalf("measured %v bytes/round, analytic %v (headers should add <1%%)", measured, analytic)
	}
}

func TestScaffoldOverTransportDoublesBytes(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	avg, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algorithm = fl.Scaffold
	sca, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sca.CommBytesPerRound / avg.CommBytesPerRound
	if ratio < 1.8 || ratio > 2.1 {
		t.Fatalf("scaffold/fedavg measured ratio %v, want ~2", ratio)
	}
}

func TestRunLocalAgreesWithSimulation(t *testing.T) {
	// The transport must not change the math: same config and seeds give
	// the same learning behaviour (not bit-identical because party RNG
	// streams differ, but accuracy should be in the same band).
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")
	viaNet, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := fl.NewSimulation(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(viaNet.FinalAccuracy-direct.FinalAccuracy) > 0.12 {
		t.Fatalf("transport accuracy %v vs simulation %v", viaNet.FinalAccuracy, direct.FinalAccuracy)
	}
}

func TestTCPFederation(t *testing.T) {
	cfg, locals, test := smallFederation(t)
	spec, _ := data.Model("adult")

	res := mustLoopback(t, cfg, spec, locals, test, ServerOptions{}, nil)
	if res.FinalAccuracy < 0.60 {
		t.Fatalf("tcp federation accuracy %v", res.FinalAccuracy)
	}
	if res.TotalCommBytes == 0 {
		t.Fatal("no tcp bytes counted")
	}
}

func TestUnmarshalNeverPanicsOnGarbage(t *testing.T) {
	// Any byte soup must produce an error or a message, never a panic or
	// an out-of-range read.
	err := quick.Check(func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %v: %v", raw, r)
			}
		}()
		_, _ = Unmarshal(raw)
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedSamplingOverTransport(t *testing.T) {
	// Four single-label parties (two per class) and SampleFraction 0.5:
	// the stratified sampler clusters parties by label distribution and
	// draws one per cluster, so every round must sample exactly one party
	// from each label group. The old simnet server silently fell back to
	// uniform sampling; now both transports share the engine's sampler.
	train, test, err := data.Load("adult", data.Config{TrainN: 600, TestN: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	_, locals, err := partition.Strategy{Kind: partition.LabelQuantity, K: 1}.Split(train, 4, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	majority := make([]int, len(locals))
	for i, ds := range locals {
		counts := ds.ClassCounts()
		best := 0
		for c := range counts {
			if counts[c] > counts[best] {
				best = c
			}
		}
		majority[i] = best
	}
	spec, _ := data.Model("adult")
	cfg := fl.Config{
		Algorithm: fl.FedAvg, Rounds: 6, LocalEpochs: 1, BatchSize: 32,
		LR: 0.05, Seed: 5, SampleFraction: 0.5, Sampling: fl.SampleStratified,
	}
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Curve {
		if len(m.Sampled) != 2 {
			t.Fatalf("round %d sampled %d parties, want one per label cluster (2)", m.Round, len(m.Sampled))
		}
		seen := map[int]bool{}
		for _, id := range m.Sampled {
			seen[majority[id]] = true
		}
		if len(seen) != 2 {
			t.Fatalf("round %d sampled parties %v cover label groups %v, want both classes", m.Round, m.Sampled, seen)
		}
	}
}

func TestTransportUpdatesToleratesSlowParty(t *testing.T) {
	// With per-party readers the server folds whatever prefix of the
	// sampled order is ready; a straggling first party must not
	// deadlock nor corrupt the fold. The pipes deliver replies in whatever
	// order parties finish, which under concurrent training is already
	// out of order — this just pins the round completing correctly.
	cfg, locals, test := smallFederation(t)
	cfg.Rounds = 3
	spec, _ := data.Model("adult")
	res, err := RunLocal(cfg, spec, locals, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 3 {
		t.Fatalf("rounds: %d", len(res.Curve))
	}
	for _, m := range res.Curve {
		if len(m.Sampled) != len(locals) {
			t.Fatalf("round %d sampled %v", m.Round, m.Sampled)
		}
	}
}
