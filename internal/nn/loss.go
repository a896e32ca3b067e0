package nn

import (
	"fmt"
	"math"

	"github.com/niid-bench/niidbench/internal/tensor"
)

// SoftmaxCrossEntropy couples a softmax with the negative log-likelihood
// loss. LossInto returns the mean loss over the batch and the gradient of
// that mean loss with respect to the logits, which is (softmax -
// onehot)/batch. The gradient tensor matches the logits' dtype; the loss
// itself is always computed in float64 (exp/log on a handful of classes is
// not a hot path).
type SoftmaxCrossEntropy struct{}

// lossRows is the dtype-generic loss body: a numerically stable softmax
// per row, accumulating the total loss and writing the gradient.
func lossRows[T tensor.Elem](ld, gd []T, labels []int, b, k int) float64 {
	var total float64
	invB := 1 / float64(b)
	for i := 0; i < b; i++ {
		row := ld[i*k : (i+1)*k]
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		// Stable softmax.
		m := float64(row[0])
		for _, v := range row[1:] {
			if float64(v) > m {
				m = float64(v)
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v) - m)
		}
		logSum := math.Log(sum) + m
		total += logSum - float64(row[y])
		g := gd[i*k : (i+1)*k]
		for j, v := range row {
			g[j] = T(math.Exp(float64(v)-logSum) * invB)
		}
		g[y] -= T(invB)
	}
	return total * invB
}

// LossInto computes the mean cross-entropy of logits (batch, classes)
// against integer labels, plus the logits gradient. grad is caller-held
// scratch grown via tensor.EnsureOf to the logits' dtype (nil allocates)
// and fully overwritten. It returns the mean loss and the (possibly
// re-allocated) gradient tensor, which the caller should keep for the next
// call.
func (SoftmaxCrossEntropy) LossInto(grad *tensor.Tensor, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: cross-entropy logits shape %v, want 2-D", logits.Shape()))
	}
	b, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: %d labels for batch %d", len(labels), b))
	}
	grad = tensor.EnsureOf(logits.DType(), grad, b, k)
	var total float64
	if logits.DType() == tensor.Float32 {
		total = lossRows(logits.Data32(), grad.Data32(), labels, b, k)
	} else {
		total = lossRows(logits.Data(), grad.Data(), labels, b, k)
	}
	return total, grad
}

func predictRows[T tensor.Elem](ld []T, out []int, b, k int) {
	for i := 0; i < b; i++ {
		row := ld[i*k : (i+1)*k]
		best, bestJ := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bestJ = v, j+1
			}
		}
		out[i] = bestJ
	}
}

// PredictInto returns the argmax class per row of logits. out is
// caller-held scratch, re-sliced when capacity allows (nil allocates), so
// evaluation loops predict without allocating.
func PredictInto(out []int, logits *tensor.Tensor) []int {
	b, k := logits.Dim(0), logits.Dim(1)
	if cap(out) < b {
		out = make([]int, b)
	}
	out = out[:b]
	if logits.DType() == tensor.Float32 {
		predictRows(logits.Data32(), out, b, k)
	} else {
		predictRows(logits.Data(), out, b, k)
	}
	return out
}
