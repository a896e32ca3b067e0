// Package tensor is a stub of the real internal/tensor pool API, just
// enough surface for the poolcheck fixtures to type-check. PkgIs
// suffix-matching makes the analyzer treat it as the real package.
package tensor

// Tensor is a pooled buffer.
type Tensor struct{ Data []float64 }

// Pool recycles Tensors.
type Pool struct{}

func NewPool() *Pool { return &Pool{} }

// GetRaw returns a pooled tensor of n elements; pair with Put.
func (p *Pool) GetRaw(n int) *Tensor { return &Tensor{Data: make([]float64, n)} }

// Put returns t to the pool.
func (p *Pool) Put(t *Tensor) {}
