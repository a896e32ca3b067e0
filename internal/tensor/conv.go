package tensor

// The convolution entries of the packed-panel GEMM driver (gemm.go). A
// convolution is three products against the patch matrix P of its input
// (one row per output pixel, flattened over (b, oy, ox), one column per
// patch element (ci, ky, kx); Im2ColInto materializes it), and none of
// them holds P: each re-derives the block of P a product step needs,
// transposed — one row per patch element, so that for stride 1 an output
// row's pixels are one contiguous run of the image — into pooled,
// L2-sized scratch that the A stream reads in place.
//
//   - ConvInto, out = P W + bias: per block of mc pixels, A is the block
//     (sa = block width), B is W packed once per call, and the block's
//     (pixels, oc) product is scattered into the NCHW planes of out with
//     the bias added.
//   - ConvWeightGradInto, dW = Pᵀ G, with G the output gradient read as
//     its (pixels, oc) matrix: k runs over the pixels in kc blocks, A is
//     the block (sa = 1) and B is the block's rows of G, packed straight
//     from the NCHW gradient.
//   - ConvInputGradInto, dx = col2im(G Wᵀ): A is G, streamed in place
//     from the NCHW gradient one image at a time (sa = oh*ow), and the
//     column gradient of about kc pixels' worth of whole images lands in
//     pooled scratch and is scattered into dx at once.
//
// Each product runs gemmBlocks with the operands, blocking and kernels of
// its materialized twin (Im2ColInto or Col2ImInto with the MatMul
// entries), and only the row tiling — which no element's sum depends on
// — differs, so every result is bitwise the twin's.

// ConvInto computes out = conv(x, w) + bias for x (batch, c, h, w), w
// (c*kh*kw, oc) in patch-column order, bias (oc) and out (batch, oc, oh,
// ow), all of one dtype. Returns out.
func (c Compute) ConvInto(out, x, w, bias *Tensor, kh, kw, stride, pad int) *Tensor {
	g := newConvGeom("Conv", x, kh, kw, stride, pad)
	g.oc = bias.Len()
	g.want("Conv", x, w, g.k(), g.oc)
	g.want("Conv", x, bias, g.oc)
	g.want("Conv", x, out, g.b, g.oc, g.oh, g.ow)
	if x.dt == Float32 {
		convForward(&kernels32, c.workers(), out.data32, x.data32, w.data32, bias.data32, g)
	} else {
		convForward(&kernels64, c.workers(), out.data, x.data, w.data, bias.data, g)
	}
	return out
}

// ConvWeightGradInto computes dw = Pᵀ G, the weight gradient of the
// convolution ConvInto(·, x, ·, ·, kh, kw, stride, pad) given grad, the
// gradient of its output. dw is (c*kh*kw, oc) and is overwritten.
// Returns dw.
func (c Compute) ConvWeightGradInto(dw, x, grad *Tensor, kh, kw, stride, pad int) *Tensor {
	g := newConvGeom("ConvWeightGrad", x, kh, kw, stride, pad)
	g.oc = dw.Len() / g.k()
	g.want("ConvWeightGrad", x, grad, g.b, g.oc, g.oh, g.ow)
	g.want("ConvWeightGrad", x, dw, g.k(), g.oc)
	if x.dt == Float32 {
		convWeightGrad(&kernels32, c.workers(), dw.data32, x.data32, grad.data32, g)
	} else {
		convWeightGrad(&kernels64, c.workers(), dw.data, x.data, grad.data, g)
	}
	return dw
}

// ConvInputGradInto computes dx, the input gradient of the convolution
// ConvInto(·, x, w, ·, kh, kw, stride, pad) given grad, the gradient of
// its output. dx has x's shape and is overwritten. Returns dx.
func (c Compute) ConvInputGradInto(dx, grad, w *Tensor, kh, kw, stride, pad int) *Tensor {
	g := newConvGeom("ConvInputGrad", dx, kh, kw, stride, pad)
	g.oc = w.Len() / g.k()
	g.want("ConvInputGrad", dx, grad, g.b, g.oc, g.oh, g.ow)
	g.want("ConvInputGrad", dx, w, g.k(), g.oc)
	if dx.dt == Float32 {
		convInputGrad(&kernels32, c.workers(), dx.data32, grad.data32, w.data32, g)
	} else {
		convInputGrad(&kernels64, c.workers(), dx.data, grad.data, w.data, g)
	}
	return dx
}

// patchBlock writes kernel rows [kr0, kr1) of the transposed patch
// matrix for pixels [r0, r1): dst[q*(r1-r0) + r-r0] is element
// kr0*kw + q of pixel r's patch. It walks the block one output row at a
// time, so the row-validity check runs once per kernel row, and each
// (ky, kx) copies the row's pixels as one run — for stride 1 a contiguous
// run of the image, inside the image (the padding-free interior) with no
// per-element bounds logic.
func patchBlock[T Elem](xd, dst []T, r0, r1, kr0, kr1 int, g convGeom) {
	ld, hw, kw := r1-r0, g.hw(), g.kw
	for r := r0; r < r1; {
		bi, pix := r/hw, r%hw
		oy, ox := pix/g.ow, pix%g.ow
		l := min(g.ow-ox, r1-r)
		col, ix0 := r-r0, ox*g.stride-g.pad
		last := ix0 + (l-1)*g.stride
		ci, ky := kr0/g.kh, kr0%g.kh
		for q := 0; q < (kr1-kr0)*kw; q += kw {
			iy, plane := oy*g.stride-g.pad+ky, bi*g.c+ci
			if ky++; ky == g.kh {
				ky, ci = 0, ci+1
			}
			if iy < 0 || iy >= g.h {
				for kx := 0; kx < kw; kx++ {
					clear(dst[(q+kx)*ld+col:][:l])
				}
				continue
			}
			src := (plane*g.h+iy)*g.w + ix0
			if kw == 5 && g.stride == 1 && ix0 >= 0 && last+5 <= g.w {
				// The CNN's interior: slide a 5-wide window along the row
				// in registers, one load and five stores per pixel.
				d0, d1, d2, d3, d4 := dst[q*ld+col:][:l], dst[(q+1)*ld+col:][:l], dst[(q+2)*ld+col:][:l], dst[(q+3)*ld+col:][:l], dst[(q+4)*ld+col:][:l]
				in := xd[src:][:l+4]
				a, b, c, d := in[0], in[1], in[2], in[3]
				for t, e := range in[4:] {
					d0[t], d1[t], d2[t], d3[t], d4[t] = a, b, c, d, e
					a, b, c, d = b, c, d, e
				}
				continue
			}
			for kx := 0; kx < kw; kx++ {
				// Pixel t of the run reads column lo + t*stride; those in
				// [t0, t1) are inside the image, the rest are padding.
				run, lo := dst[(q+kx)*ld+col:][:l], ix0+kx
				t0, t1 := 0, l
				if lo < 0 {
					t0 = min(l, (g.stride-1-lo)/g.stride)
				}
				if last+kx >= g.w {
					t1 = 0
					if lo < g.w {
						t1 = (g.w-1-lo)/g.stride + 1
					}
					t1 = max(t0, t1)
				}
				if t0 > 0 {
					clear(run[:t0])
				}
				if t1 < l {
					clear(run[t1:])
				}
				switch at := src + kx + t0*g.stride; {
				case t0 == t1:
				case g.stride == 1:
					for t, v := range xd[at : at+t1-t0] {
						run[t0+t] = v
					}
				default:
					for t := t0; t < t1; t++ {
						run[t] = xd[at+(t-t0)*g.stride]
					}
				}
			}
		}
		r += l
	}
}

func convForward[T Elem](ks *kernelSet[T], workers int, od, xd, wd, bd []T, g convGeom) {
	n := g.b * g.hw()
	blocks := (n + mc - 1) / mc
	if blocks > 1 && workers > 1 && n*g.k() >= parallelThreshold {
		parallelChunks(workers, blocks, func(c0, c1 int) {
			convForwardBlocks(ks, od, xd, wd, bd, g, c0, c1)
		})
		return
	}
	convForwardBlocks(ks, od, xd, wd, bd, g, 0, blocks)
}

// convForwardBlocks computes the output pixels of blocks [c0, c1) of mc
// pixels each.
func convForwardBlocks[T Elem](ks *kernelSet[T], od, xd, wd, bd []T, g convGeom, c0, c1 int) {
	// Per block, prod (pixels, oc) = P_block W: m = the block's pixels,
	// n = oc, and the product's k is the patch length, blocked by kc.
	nr, k, hw, oc := ks.nr, g.k(), g.hw(), g.oc
	n := g.b * hw
	// W is packed once, each k-block's panels followed by gemmBlocks'
	// edge tile.
	nPanels, kBlocks := (oc+nr-1)/nr, (k+kc-1)/kc
	wStride := nPanels*min(kc, k)*nr + mr*nr
	buf := Shared.GetRaw(ks.dt, kBlocks*wStride+k*mc+mc*oc)
	scratch := ks.data(buf)
	wp, pt, prod := scratch[:kBlocks*wStride], scratch[kBlocks*wStride:][:k*mc], scratch[kBlocks*wStride+k*mc:]
	for p0 := 0; p0 < k; p0 += kc {
		packB(wp[p0/kc*wStride:], wd, nr, p0, min(kc, k-p0), oc, oc, 1)
	}
	for blk := c0; blk < c1; blk++ {
		r0 := blk * mc
		r1 := min(r0+mc, n)
		bw := r1 - r0
		patchBlock(xd, pt, r0, r1, 0, g.c*g.kh, g)
		for p0 := 0; p0 < k; p0 += kc {
			gemmBlocks(ks, prod, pt, wp[p0/kc*wStride:], 0, 1, bw, oc, min(kc, k-p0), p0, 1, bw, p0 == 0)
		}
		// Scatter prod + bias into the planes, one image's run at a time.
		for r := r0; r < r1; {
			bi, pix := r/hw, r%hw
			l := min(hw-pix, r1-r)
			for o, v := range bd[:oc] {
				dst := od[(bi*oc+o)*hw+pix:][:l]
				src := prod[(r-r0)*oc+o:]
				for t := range dst {
					dst[t] = src[t*oc] + v
				}
			}
			r += l
		}
	}
	Shared.Put(buf)
}

func convWeightGrad[T Elem](ks *kernelSet[T], workers int, dwd, xd, gd []T, g convGeom) {
	// Workers split dW's rows at kernel-row boundaries: each derives only
	// its own rows of the transposed patch blocks.
	rows := g.c * g.kh
	if rows > 1 && workers > 1 && g.b*g.hw()*g.k() >= parallelThreshold {
		parallelChunks(workers, rows, func(kr0, kr1 int) {
			convWeightGradRows(ks, dwd, xd, gd, g, kr0, kr1)
		})
		return
	}
	convWeightGradRows(ks, dwd, xd, gd, g, 0, rows)
}

// convWeightGradRows computes the dW rows of kernel rows [kr0, kr1).
func convWeightGradRows[T Elem](ks *kernelSet[T], dwd, xd, gd []T, g convGeom, kr0, kr1 int) {
	// dW (k, oc) = Pᵀ G: m = k, n = oc, and the product's k is the pixel
	// count, blocked by kc exactly as MatMulTransAInto blocks it.
	nr, oc := ks.nr, g.oc
	m, n := (kr1-kr0)*g.kw, g.b*g.hw()
	nPanels, nBlocks := (oc+nr-1)/nr, (m+mc-1)/mc
	kcb := min(kc, n)
	buf := Shared.GetRaw(ks.dt, m*kcb+nPanels*kcb*nr+nBlocks*mr*nr)
	scratch := ks.data(buf)
	pt, bp := scratch[:m*kcb], scratch[m*kcb:]
	for p0 := 0; p0 < n; p0 += kc {
		kb := min(kc, n-p0)
		patchBlock(xd, pt, p0, p0+kb, kr0, kr1, g)
		packGrad(bp, gd, p0, kb, nr, g)
		gemmBlocks(ks, dwd[kr0*g.kw*oc:], pt, bp, 0, nBlocks, m, oc, kb, 0, kb, 1, p0 == 0)
	}
	Shared.Put(buf)
}

// packGrad packs rows [p0, p0+kb) of G, the (pixels, oc) matrix of the
// NCHW output gradient gd, into nr-column panels as packB would: G(j, o)
// is gd[(bi*oc + o)*hw + pix] for pixel j = (bi, pix).
func packGrad[T Elem](bp, gd []T, p0, kb, nr int, g convGeom) {
	hw, oc := g.hw(), g.oc
	for o0 := 0; o0 < oc; o0 += nr {
		dst := bp[o0/nr*kb*nr:]
		cols := min(nr, oc-o0)
		bi, pix := p0/hw, p0%hw
		for p := 0; p < kb; p++ {
			row := dst[p*nr : p*nr+nr]
			src := (bi*oc+o0)*hw + pix
			for c := range row[:cols] {
				row[c] = gd[src+c*hw]
			}
			for c := cols; c < nr; c++ {
				row[c] = 0
			}
			if pix++; pix == hw {
				pix, bi = 0, bi+1
			}
		}
	}
}

func convInputGrad[T Elem](ks *kernelSet[T], workers int, dxd, gd, wd []T, g convGeom) {
	// A group is as many whole images as fill about kc column-gradient
	// rows.
	per := max(1, kc/g.hw())
	groups := (g.b + per - 1) / per
	if groups > 1 && workers > 1 && g.b*g.hw()*g.k() >= parallelThreshold {
		parallelChunks(workers, groups, func(c0, c1 int) {
			convInputGradGroups(ks, dxd, gd, wd, g, per, c0, c1)
		})
		return
	}
	convInputGradGroups(ks, dxd, gd, wd, g, per, 0, groups)
}

// convInputGradGroups computes the input gradient of image groups
// [c0, c1) of per images each.
func convInputGradGroups[T Elem](ks *kernelSet[T], dxd, gd, wd []T, g convGeom, per, c0, c1 int) {
	// Per image, cols (hw, k) = G_b Wᵀ: m = hw, n = k, and the product's k
	// is oc. A row of G_b is one pixel across the channel planes.
	nr, k, hw, oc := ks.nr, g.k(), g.hw(), g.oc
	nPanels, nBlocks := (k+nr-1)/nr, (hw+mc-1)/mc
	kcb := min(kc, oc)
	buf := Shared.GetRaw(ks.dt, per*hw*k+nPanels*kcb*nr+nBlocks*mr*nr)
	scratch := ks.data(buf)
	cols, bp := scratch[:per*hw*k], scratch[per*hw*k:]
	img := g.c * g.h * g.w
	for grp := c0; grp < c1; grp++ {
		b0 := grp * per
		b1 := min(b0+per, g.b)
		for p0 := 0; p0 < oc; p0 += kc {
			kb := min(kc, oc-p0)
			packB(bp, wd, nr, p0, kb, k, 1, oc)
			for bi := b0; bi < b1; bi++ {
				gemmBlocks(ks, cols[(bi-b0)*hw*k:], gd[bi*oc*hw:], bp, 0, nBlocks, hw, k, kb, p0, 1, hw, p0 == 0)
			}
		}
		clear(dxd[b0*img : b1*img])
		col2imRange(dxd, cols, b0, b1, g)
	}
	Shared.Put(buf)
}
