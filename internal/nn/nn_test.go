package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/niid-bench/niidbench/internal/rng"
	"github.com/niid-bench/niidbench/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	r := rng.New(1)
	d := NewDenseOf(tensor.Float64, 2, 2, r)
	copy(d.W.Data.Data(), []float64{1, 2, 3, 4})
	copy(d.B.Data.Data(), []float64{10, 20})
	x := tensor.ViewInto(nil, []float64{1, 1, 2, 0}, 2, 2)
	y := d.Forward(x, true)
	want := []float64{14, 26, 12, 24}
	for i, w := range want {
		if math.Abs(y.Data()[i]-w) > 1e-12 {
			t.Fatalf("dense forward: got %v want %v", y.Data(), want)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.ViewInto(nil, []float64{-1, 2, 0, 3}, 1, 4)
	y := l.Forward(x, true)
	if y.Data()[0] != 0 || y.Data()[1] != 2 || y.Data()[2] != 0 || y.Data()[3] != 3 {
		t.Fatalf("relu forward: %v", y.Data())
	}
	g := l.Backward(tensor.ViewInto(nil, []float64{5, 5, 5, 5}, 1, 4))
	if g.Data()[0] != 0 || g.Data()[1] != 5 || g.Data()[2] != 0 || g.Data()[3] != 5 {
		t.Fatalf("relu backward: %v", g.Data())
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten()
	x := tensor.NewOf(tensor.Float64, 2, 3, 4, 4)
	y := l.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := l.Backward(tensor.NewOf(tensor.Float64, 2, 48))
	if g.Rank() != 4 || g.Dim(1) != 3 {
		t.Fatalf("unflatten shape %v", g.Shape())
	}
}

func TestMaxPoolKnown(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.ViewInto(nil, []float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float64{4, 8, 9, 4}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("maxpool: got %v want %v", y.Data(), want)
		}
	}
	g := p.Backward(tensor.ViewInto(nil, []float64{10, 20, 30, 40}, 1, 1, 2, 2))
	// Gradient should land exactly on the argmax positions.
	if gd := g.Data(); gd[1*4+1] != 10 || gd[1*4+3] != 20 || gd[2*4+0] != 30 || gd[3*4+2] != 40 {
		t.Fatalf("maxpool backward: %v", gd)
	}
	if s := elemSum(g); s != 100 {
		t.Fatalf("maxpool backward should conserve gradient mass, sum=%v", s)
	}
}

// TestMaxPoolRejectsOversizedWindow: a window larger than the input on
// either axis panics, as Im2ColInto does, instead of pooling one partial
// window (ConvOutSize(1, 2, 2, 0) truncates to 1).
func TestMaxPoolRejectsOversizedWindow(t *testing.T) {
	for _, hw := range [][2]int{{1, 4}, {4, 1}, {1, 1}} {
		func() {
			defer func() {
				want := fmt.Sprintf("nn: MaxPool2D kernel 2x2 too large for input %dx%d", hw[0], hw[1])
				if got := recover(); got != want {
					t.Fatalf("%dx%d input: recovered %v, want panic %q", hw[0], hw[1], got, want)
				}
			}()
			NewMaxPool2D(2, 2).Forward(tensor.NewOf(tensor.Float64, 1, 1, hw[0], hw[1]), true)
		}()
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	bn := newBatchNorm(tensor.Float64, 2, true)
	r := rng.New(3)
	x := tensor.NewOf(tensor.Float64, 64, 2)
	for i := range x.Data() {
		x.Data()[i] = r.Gaussian(5, 3)
	}
	y := bn.Forward(x, true)
	// Each output column should be ~N(0,1) after normalization.
	for c := 0; c < 2; c++ {
		var sum, sq float64
		for b := 0; b < 64; b++ {
			v := y.Data()[b*2+c]
			sum += v
			sq += v * v
		}
		mean := sum / 64
		variance := sq/64 - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-6 {
			t.Fatalf("bn column %d: mean %v var %v", c, mean, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	bn := newBatchNorm(tensor.Float64, 1, true)
	r := rng.New(4)
	for step := 0; step < 300; step++ {
		x := tensor.NewOf(tensor.Float64, 32, 1)
		for i := range x.Data() {
			x.Data()[i] = r.Gaussian(7, 2)
		}
		bn.Forward(x, true)
	}
	if math.Abs(bn.RunMean.Data.Data()[0]-7) > 0.5 {
		t.Fatalf("running mean %v, want ~7", bn.RunMean.Data.Data()[0])
	}
	if math.Abs(bn.RunVar.Data.Data()[0]-4) > 1 {
		t.Fatalf("running var %v, want ~4", bn.RunVar.Data.Data()[0])
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := newBatchNorm(tensor.Float64, 1, true)
	bn.RunMean.Data.Data()[0] = 10
	bn.RunVar.Data.Data()[0] = 4
	x := tensor.ViewInto(nil, []float64{12}, 1, 1)
	y := bn.Forward(x, false)
	// (12-10)/2 = 1 with gamma=1, beta=0.
	if math.Abs(y.Data()[0]-1) > 1e-3 {
		t.Fatalf("eval bn: got %v want 1", y.Data()[0])
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := tensor.ViewInto(nil, []float64{0, 0, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy{}.LossInto(nil, logits, []int{1})
	if math.Abs(loss-math.Log(3)) > 1e-9 {
		t.Fatalf("uniform logits loss: got %v want ln3", loss)
	}
	want := []float64{1.0 / 3, 1.0/3 - 1, 1.0 / 3}
	for i, w := range want {
		if math.Abs(grad.Data()[i]-w) > 1e-9 {
			t.Fatalf("grad: got %v want %v", grad.Data(), want)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.ViewInto(nil, []float64{1000, 0}, 1, 2)
	loss, grad := SoftmaxCrossEntropy{}.LossInto(nil, logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflowed: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data() {
		if math.IsNaN(g) {
			t.Fatal("gradient is NaN")
		}
	}
}

func TestPredictArgmax(t *testing.T) {
	logits := tensor.ViewInto(nil, []float64{1, 3, 2, 9, 0, 1}, 2, 3)
	p := PredictInto(nil, logits)
	if p[0] != 1 || p[1] != 0 {
		t.Fatalf("predict: %v", p)
	}
}

func TestPredictIntoReusesOut(t *testing.T) {
	logits := tensor.NewOf(tensor.Float32, 2, 3)
	copy(logits.Data32(), []float32{1, 3, 2, 9, 0, 1})
	buf := make([]int, 5)
	p := PredictInto(buf, logits)
	if len(p) != 2 || &p[0] != &buf[0] || p[0] != 1 || p[1] != 0 {
		t.Fatalf("float32 predict into a 5-cap buffer: %v", p)
	}
	if allocs := testing.AllocsPerRun(10, func() { PredictInto(buf, logits) }); allocs != 0 {
		t.Fatalf("PredictInto with enough capacity allocated %v times", allocs)
	}
}

func TestLossIntoReusesGrad(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		logits := tensor.NewOf(dt, 2, 3) // uniform logits: loss ln 3
		labels := []int{0, 2}
		loss, grad := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
		if math.Abs(loss-math.Log(3)) > 1e-6 || grad.DType() != dt {
			t.Fatalf("%v: loss %v grad dtype %v", dt, loss, grad.DType())
		}
		// Stale values in the held gradient are overwritten, not added to.
		grad.Fill(7)
		_, again := SoftmaxCrossEntropy{}.LossInto(grad, logits, labels)
		if again != grad {
			t.Fatalf("%v: LossInto re-allocated a gradient of the right shape", dt)
		}
		g := make([]float64, grad.Len())
		grad.CopyToF64(g)
		if math.Abs(g[0]-(1.0/3-1)/2) > 1e-6 || math.Abs(g[1]-1.0/6) > 1e-6 {
			t.Fatalf("%v: gradient %v", dt, g)
		}
		if allocs := testing.AllocsPerRun(10, func() { SoftmaxCrossEntropy{}.LossInto(grad, logits, labels) }); allocs != 0 {
			t.Fatalf("%v: LossInto with a held gradient allocated %v times", dt, allocs)
		}
	}
}

func TestLossIntoRejectsBadLabels(t *testing.T) {
	for name, labels := range map[string][]int{"out of range": {0, 3}, "negative": {-1, 0}, "short": {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s labels: expected panic", name)
				}
			}()
			SoftmaxCrossEntropy{}.LossInto(nil, tensor.NewOf(tensor.Float64, 2, 3), labels)
		}()
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := rng.New(5)
	m := Build(ModelSpec{Kind: KindVGG, Channels: 1, Height: 16, Width: 16, Classes: 3}, r)
	s := m.State()
	if len(s) != m.StateCount() {
		t.Fatalf("state length %d, want %d", len(s), m.StateCount())
	}
	// Perturb the model then restore the snapshot.
	for _, p := range m.Params() {
		p.Data.Fill(0.123)
	}
	for _, b := range m.Buffers() {
		b.Data.Fill(9)
	}
	m.SetState(s)
	s2 := m.State()
	for i := range s {
		if s[i] != s2[i] {
			t.Fatalf("state round trip diverged at %d", i)
		}
	}
}

func TestStateIncludesBuffers(t *testing.T) {
	r := rng.New(6)
	m := NewSequential(NewDenseOf(tensor.Float64, 2, 2, r), newBatchNorm(tensor.Float64, 2, true))
	if m.StateCount() != m.ParamCount()+4 {
		t.Fatalf("state %d params %d: BN buffers missing", m.StateCount(), m.ParamCount())
	}
}

func TestBuildAllKinds(t *testing.T) {
	r := rng.New(9)
	specs := []ModelSpec{
		{Kind: KindCNN, Channels: 1, Height: 16, Width: 16, Classes: 10},
		{Kind: KindCNN, Channels: 3, Height: 16, Width: 16, Classes: 10},
		{Kind: KindMLP, InputDim: 54, Classes: 2},
		{Kind: KindVGG, Channels: 3, Height: 16, Width: 16, Classes: 10},
		{Kind: KindResNet, Channels: 3, Height: 16, Width: 16, Classes: 10},
	}
	for _, s := range specs {
		m := Build(s, r)
		batch := 3
		x := randInput(r, batch, inputLen(s))
		logits := m.Forward(s.ShapeBatch(x), true)
		if logits.Dim(0) != batch || logits.Dim(1) != s.Classes {
			t.Fatalf("%s logits shape %v", s.Kind, logits.Shape())
		}
		labels := make([]int, batch)
		_, g := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
		m.Backward(g)
	}
}

func TestModelsCanOverfitTinyDataset(t *testing.T) {
	// End-to-end sanity: a few SGD steps should drive training loss down on
	// a tiny separable problem for each architecture.
	for _, kind := range []ModelKind{KindMLP, KindCNN} {
		r := rng.New(10)
		var spec ModelSpec
		if kind == KindMLP {
			spec = ModelSpec{Kind: KindMLP, InputDim: 8, Classes: 2}
		} else {
			spec = ModelSpec{Kind: KindCNN, Channels: 1, Height: 16, Width: 16, Classes: 2}
		}
		m := Build(spec, r)
		n, in := 16, inputLen(spec)
		x := tensor.NewOf(tensor.Float64, n, in)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			labels[i] = i % 2
			for j := 0; j < in; j++ {
				v := r.Normal() * 0.1
				if labels[i] == 1 {
					v += 1
				}
				x.Data()[i*in+j] = v
			}
		}
		var first, last float64
		for step := 0; step < 60; step++ {
			logits := m.Forward(spec.ShapeBatch(x), true)
			loss, g := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
			m.Backward(g)
			for _, p := range m.Params() {
				p.Data.AddScaled(-0.1, p.Grad)
			}
			if step == 0 {
				first = loss
			}
			last = loss
		}
		if last > first*0.5 {
			t.Fatalf("%s failed to learn: loss %v -> %v", kind, first, last)
		}
	}
}

func BenchmarkPaperCNNForwardBackward(b *testing.B) {
	r := rng.New(1)
	spec := ModelSpec{Kind: KindCNN, Channels: 1, Height: 16, Width: 16, Classes: 10}
	m := Build(spec, r)
	x := randInput(r, 32, inputLen(spec))
	labels := make([]int, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(spec.ShapeBatch(x), true)
		_, g := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
		m.Backward(g)
	}
}

func BenchmarkPaperMLPForwardBackward(b *testing.B) {
	r := rng.New(1)
	spec := ModelSpec{Kind: KindMLP, InputDim: 123, Classes: 2}
	m := Build(spec, r)
	x := randInput(r, 64, inputLen(spec))
	labels := make([]int, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x, true)
		_, g := SoftmaxCrossEntropy{}.LossInto(nil, logits, labels)
		m.Backward(g)
	}
}

func TestDenseLinearityProperty(t *testing.T) {
	// With zero bias a dense layer is linear: f(a*x) == a*f(x).
	r := rng.New(20)
	d := NewDenseOf(tensor.Float64, 5, 3, r)
	d.B.Data.Zero()
	err := quick.Check(func(scaleRaw int8) bool {
		a := float64(scaleRaw) / 16
		x := randInput(rng.New(21), 2, 5)
		fx := clone(d.Forward(x, false))
		xs := tensor.NewOf(tensor.Float64, x.Shape()...)
		xs.AddScaled(a, x)
		fax := d.Forward(xs, false)
		for i := range fx.Data() {
			if math.Abs(fax.Data()[i]-a*fx.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxGradSumsToZeroProperty(t *testing.T) {
	// Per-sample cross-entropy gradient over logits always sums to zero.
	r := rng.New(22)
	err := quick.Check(func(classesRaw, label uint8) bool {
		k := int(classesRaw%6) + 2
		y := int(label) % k
		logits := randInput(r, 1, k)
		_, g := SoftmaxCrossEntropy{}.LossInto(nil, logits, []int{y})
		var sum float64
		for _, v := range g.Data() {
			sum += v
		}
		return math.Abs(sum) < 1e-9
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxPoolGradientMassProperty(t *testing.T) {
	// Pooling backward conserves total gradient mass for non-overlapping
	// windows.
	r := rng.New(23)
	err := quick.Check(func(seed uint16) bool {
		p := NewMaxPool2D(2, 2)
		x := randInput(rng.New(uint64(seed)), 1, 2, 6, 6)
		out := p.Forward(x, true)
		g := randInput(r, out.Shape()...)
		back := p.Backward(g)
		return math.Abs(elemSum(back)-elemSum(g)) < 1e-9
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// elemSum adds up a float64 tensor's elements.
func elemSum(x *tensor.Tensor) float64 {
	var s float64
	for _, v := range x.Data() {
		s += v
	}
	return s
}

// clone copies a layer's output, which is scratch the layer's next pass
// overwrites.
func clone(x *tensor.Tensor) *tensor.Tensor {
	c := tensor.NewOf(x.DType(), x.Shape()...)
	if x.DType() == tensor.Float32 {
		copy(c.Data32(), x.Data32())
	} else {
		copy(c.Data(), x.Data())
	}
	return c
}
