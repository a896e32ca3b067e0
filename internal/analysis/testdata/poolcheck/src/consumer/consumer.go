package consumer

import "tensor"

type holder struct{ buf *tensor.Tensor }

// paired acquires and recycles in the same function: clean.
func paired(p *tensor.Pool) float64 {
	t := p.GetRaw(8)
	defer p.Put(t)
	return t.Data[0]
}

// pairedInClosure recycles from an error-path closure: still clean,
// the whole function body is scanned.
func pairedInClosure(p *tensor.Pool) error {
	t := p.GetRaw(8)
	fail := func() error {
		p.Put(t)
		return nil
	}
	return fail()
}

// leaks never recycles and never hands off.
func leaks(p *tensor.Pool) float64 {
	t := p.GetRaw(8) // want `pooled tensor from GetRaw is never returned with Put and never handed off`
	return t.Data[0]
}

// escapesUndocumented returns the buffer without saying who recycles
// it.
func escapesUndocumented(p *tensor.Pool) *tensor.Tensor {
	t := p.GetRaw(8) // want `escapes escapesUndocumented without a documented ownership transfer`
	return t
}

// escapesDocumented returns a pooled tensor; the caller owns it and
// must Put it back when done.
func escapesDocumented(p *tensor.Pool) *tensor.Tensor {
	t := p.GetRaw(8)
	return t
}

// sendsDocumented transfers a pooled tensor on ch; the receiver calls
// Put.
func sendsDocumented(p *tensor.Pool, ch chan *tensor.Tensor) {
	t := p.GetRaw(8)
	ch <- t
}

// storesUndocumented parks the buffer in a struct with no contract.
func storesUndocumented(p *tensor.Pool, h *holder) {
	t := p.GetRaw(8) // want `escapes storesUndocumented without a documented ownership transfer`
	h.buf = t
}

// allowed documents an intentional exception inline.
func allowed(p *tensor.Pool) float64 {
	//lint:allow poolcheck scratch lives for the process lifetime by design
	t := p.GetRaw(8)
	return t.Data[0]
}
