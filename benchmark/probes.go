package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/niid-bench/niidbench/internal/data"
	"github.com/niid-bench/niidbench/internal/fl"
	"github.com/niid-bench/niidbench/internal/nn"
	"github.com/niid-bench/niidbench/internal/optim"
	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/simnet"
	"github.com/niid-bench/niidbench/internal/tensor"
)

// prober times calls into one layer's public functions, from outside,
// after the timed federation has finished and never beside it. Kernels run
// under a one-worker budget so a number means the same on any core count.
type prober struct {
	s *setup
	// local is the shard the data, nn and client probes run on: the
	// party whose row count is nearest the mean, so that train_ms times
	// the round's depth in parties approximates a round's training.
	local  *data.Dataset
	calls  int
	tr     *tracer
	parent *span
	outDir string
	out    map[string]float64
}

var oneWorker = tensor.Compute{Workers: 1}

// time runs fn once unmeasured, then calls times, and returns the median
// duration. Each measured call is a span under the probes span.
func (p *prober) time(name string, fn func()) time.Duration {
	fn()
	ds := make([]float64, p.calls)
	for i := range ds {
		sp := p.tr.begin(name, p.parent)
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
		sp.end()
	}
	return time.Duration(median(ds))
}

// allocs is the mean number of heap allocations fn makes per call.
func (p *prober) allocs(fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < p.calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(p.calls)
}

func randTensor(dt tensor.DType, r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.NewOf(dt, shape...)
	if dt == tensor.Float32 {
		for i, d := 0, t.Data32(); i < len(d); i++ {
			d[i] = float32(r.Normal())
		}
	} else {
		for i, d := 0, t.Data(); i < len(d); i++ {
			d[i] = r.Normal()
		}
	}
	return t
}

// steps is the number of mini-batches a party with n rows trains per round.
func steps(cfg fl.Config, n int) int {
	return cfg.LocalEpochs * ((n + cfg.BatchSize - 1) / cfg.BatchSize)
}

// runProbes fills p.out with every per-layer metric the probes own.
func (p *prober) runProbes() error {
	locals := p.s.in.locals
	p.local = locals[0]
	mean := float64(p.s.in.train.Len()) / float64(len(locals))
	for _, l := range locals[1:] {
		if math.Abs(float64(l.Len())-mean) < math.Abs(float64(p.local.Len())-mean) {
			p.local = l
		}
	}
	p.kernels()
	global, paramLen := p.model()
	p.client(global)
	if err := p.server(global, paramLen); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	p.out["fl.eval.accuracy_ms"] = ms(p.evalTime(global))
	if err := p.checkpoint(global); err != nil {
		return err
	}
	return p.wire()
}

func (p *prober) kernels() {
	w, dt, r := p.s.w, p.s.w.DType, rng.New(1)
	m, k, n := w.GEMM[0], w.GEMM[1], w.GEMM[2]
	a, b, g := randTensor(dt, r, m, k), randTensor(dt, r, k, n), randTensor(dt, r, m, n)
	mn, kn, mk := tensor.NewOf(dt, m, n), tensor.NewOf(dt, k, n), tensor.NewOf(dt, m, k)
	gemm := p.time("tensor.gemm", func() { oneWorker.MatMulInto(mn, a, b) })
	p.out["tensor.gemm_ms"] = ms(gemm)
	p.out["tensor.gemm_gflops"] = 2 * float64(m) * float64(k) * float64(n) / float64(gemm.Nanoseconds())
	p.out["tensor.gemm_ta_ms"] = ms(p.time("tensor.gemm_ta", func() { oneWorker.MatMulTransAInto(kn, a, g) }))
	p.out["tensor.gemm_tb_ms"] = ms(p.time("tensor.gemm_tb", func() { oneWorker.MatMulTransBInto(mk, g, b) }))

	p.out["tensor.im2col_ms"], p.out["tensor.col2im_ms"] = 0, 0
	if c := w.Conv; c != nil {
		img := randTensor(dt, r, c.B, c.C, c.H, c.W)
		oh, ow := tensor.ConvOutSize(c.H, c.K, 1, 0), tensor.ConvOutSize(c.W, c.K, 1, 0)
		cols := tensor.NewOf(dt, c.B*oh*ow, c.C*c.K*c.K)
		p.out["tensor.im2col_ms"] = ms(p.time("tensor.im2col", func() { oneWorker.Im2ColInto(cols, img, c.K, c.K, 1, 0) }))
		p.out["tensor.col2im_ms"] = ms(p.time("tensor.col2im", func() { oneWorker.Col2ImInto(img, cols, c.K, c.K, 1, 0) }))
	}
}

// model probes one batch through the built network and returns its initial
// state, which the client, server, evaluator and checkpoint probes share,
// and its parameter count.
func (p *prober) model() ([]float64, int) {
	in, cfg := p.s.in, p.s.cfg
	local := p.local
	bs := min(cfg.BatchSize, local.Len())
	idx := make([]int, bs)
	for i := range idx {
		idx[i] = i
	}
	x := tensor.NewOf(in.spec.DType, bs, local.FeatLen)
	var y []int
	p.out["data.batch_us"] = us(p.time("data.batch", func() { x, y = local.BatchInto(x, y, idx) }))

	net := nn.Build(in.spec, rng.New(1))
	net.SetCompute(oneWorker)
	global := net.State()
	var logits *tensor.Tensor
	forward := func() { logits = net.Forward(in.spec.ShapeBatch(x), true) }
	p.out["nn.forward_ms"] = ms(p.time("nn.forward", forward))
	grad := tensor.NewOf(in.spec.DType, logits.Shape()...)
	grad.Fill(1 / float64(bs))
	backward := func() { net.Backward(grad) }
	p.out["nn.backward_ms"] = ms(p.time("nn.backward", backward))
	p.out["nn.fwdbwd_allocs"] = p.allocs(func() { forward(); backward() })
	opt := optim.NewSGD(cfg.LR, cfg.Momentum)
	p.out["optim.step_us"] = us(p.time("optim.step", func() { opt.Step(net) }))
	return global, net.ParamCount()
}

func (p *prober) client(global []float64) {
	in, cfg := p.s.in, p.s.cfg
	c := fl.NewClient(0, p.local, in.spec, rng.New(p.s.shared.PartySeed(0)))
	c.SetComputeBudget(oneWorker)
	var pending *fl.PendingUpdate
	train := func() { pending = c.TrainStream(global, nil, cfg) }
	var sink int
	chunks := func() {
		_ = pending.Chunks(cfg.ChunkSize, func(_ int, chunk []float64) error {
			sink += len(chunk)
			return nil
		})
		pending.Release()
	}
	// A client may not train again before its pending update is released,
	// so the two halves are timed in alternation.
	train()
	chunks()
	trainNs, chunkNs := make([]float64, p.calls), make([]float64, p.calls)
	for i := 0; i < p.calls; i++ {
		sp := p.tr.begin("fl.client.train", p.parent)
		t0 := time.Now()
		train()
		trainNs[i] = float64(time.Since(t0))
		sp.end()
		sp = p.tr.begin("fl.client.chunks", p.parent)
		t0 = time.Now()
		chunks()
		chunkNs[i] = float64(time.Since(t0))
		sp.end()
	}
	p.out["fl.client.train_ms"] = ms(time.Duration(median(trainNs)))
	p.out["fl.client.chunks_us"] = us(time.Duration(median(chunkNs)))
	p.out["fl.client.train_allocs"] = p.allocs(func() { train(); pending.Release() })
	p.out["fl.client.steps"] = float64(steps(cfg, p.local.Len()))
}

func (p *prober) server(global []float64, paramLen int) error {
	in, cfg := p.s.in, p.s.cfg
	srv := fl.NewServer(cfg, global, paramLen, len(in.locals))
	metas := make([]fl.UpdateMeta, len(in.locals))
	for i, l := range in.locals {
		metas[i] = fl.UpdateMeta{N: l.Len(), Tau: steps(cfg, l.Len())}
	}
	// A delta small enough that folding it calls×K times leaves the state
	// finite.
	delta := make([]float64, len(global))
	for i, r := 0, rng.New(2); i < len(delta); i++ {
		delta[i] = 1e-9 * r.Normal()
	}
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = len(delta)
	}
	var fail error
	note := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	begin, fold, finish := make([]float64, p.calls), make([]float64, p.calls), make([]float64, p.calls)
	for i := -1; i < p.calls; i++ { // call -1 is the unmeasured one
		sp := p.tr.begin("fl.server.round", p.parent)
		t0 := time.Now()
		note(srv.BeginRound(metas))
		t1 := time.Now()
		for k, m := range metas {
			for off := 0; off < len(delta); off += chunk {
				note(srv.AddUpdateChunk(k, off, delta[off:min(off+chunk, len(delta))]))
			}
			note(srv.FinishUpdate(fl.Update{N: m.N, Tau: m.Tau}))
		}
		t2 := time.Now()
		note(srv.FinishRound())
		t3 := time.Now()
		sp.end()
		if i >= 0 {
			begin[i], fold[i], finish[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1)), float64(t3.Sub(t2))
		}
	}
	if fail != nil {
		return fail
	}
	foldD := time.Duration(median(fold))
	p.out["fl.server.begin_us"] = us(time.Duration(median(begin)))
	p.out["fl.server.fold_ms"] = ms(foldD)
	p.out["fl.server.fold_mb_s"] = float64(len(metas)*len(delta)*8) / 1e6 / foldD.Seconds()
	p.out["fl.server.finish_us"] = us(time.Duration(median(finish)))
	return nil
}

// evalTime times the evaluator under its default budget (all cores), which
// is what the federation's own evaluation runs under: share.eval needs the
// cost a round actually pays.
func (p *prober) evalTime(global []float64) time.Duration {
	ev := fl.NewEvaluator(p.s.in.spec, p.s.in.test)
	var acc float64
	return p.time("fl.eval.accuracy", func() { acc += ev.Accuracy(global) })
}

func (p *prober) checkpoint(global []float64) error {
	snap := &fl.FederationSnapshot{
		Round: 1, NumParties: len(p.s.in.locals), ParamLen: len(global), State: global,
	}
	var enc []byte
	p.out["fl.checkpoint.encode_ms"] = ms(p.time("fl.checkpoint.encode", func() { enc = fl.EncodeSnapshot(snap) }))
	p.out["fl.checkpoint.bytes"] = float64(len(enc))
	var decErr error
	p.out["fl.checkpoint.decode_ms"] = ms(p.time("fl.checkpoint.decode", func() { _, decErr = fl.DecodeSnapshot(enc) }))
	if decErr != nil {
		return fmt.Errorf("checkpoint probe: %w", decErr)
	}
	dir, err := os.MkdirTemp(p.outDir, "snapshot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "snapshot.bin")
	var writeErr error
	p.out["fl.checkpoint.write_ms"] = ms(p.time("fl.checkpoint.write", func() { writeErr = fl.WriteSnapshotFile(path, snap) }))
	if writeErr != nil {
		return fmt.Errorf("checkpoint probe: %w", writeErr)
	}
	return nil
}

// wire runs the null-train federation: same state size, K, chunk, codec
// and scheduler as the workload, but one row per party and a one-row test
// set, so a round is encode + send + recv + decode + fold and little else.
// Once over loopback TCP and once over in-process pipes; the difference is
// what the sockets cost.
func (p *prober) wire() error {
	// The last -epochs wins, which is how a flag string is overridden.
	nw := *p.s.w
	nw.Flags += " -epochs 1"
	cfg, shared, err := buildConfig(&nw, p.calls)
	if err != nil {
		return err
	}
	in := *p.s.in
	in.locals = make([]*data.Dataset, len(p.s.in.locals))
	for i, l := range p.s.in.locals {
		in.locals[i] = l.Subset([]int{0})
	}
	in.test = p.s.in.test.Subset([]int{0})
	null := &setup{w: &nw, cfg: cfg, shared: shared, in: &in}

	sp := p.tr.begin("simnet.wire", p.parent)
	tcp := runPass(null, nil, nil)
	sp.end()
	m, _, problems := tcp.check(null, false)
	if len(problems) > 0 {
		return fmt.Errorf("wire probe: %v", problems)
	}
	p.out["simnet.wire_round_ms"] = m.roundMsP50
	p.out["simnet.wire_mb_s"] = m.bytesPerRound / 1e6 / (m.roundMsP50 / 1e3)

	sp = p.tr.begin("simnet.pipe", p.parent)
	res, err := simnet.RunLocal(null.cfg, in.spec, in.locals, in.test)
	sp.end()
	if err != nil {
		return fmt.Errorf("pipe probe: %w", err)
	}
	var roundMs []float64
	for _, r := range res.Curve {
		roundMs = append(roundMs, ms(r.Duration))
	}
	p.out["simnet.pipe_round_ms"] = median(roundMs)
	return nil
}
