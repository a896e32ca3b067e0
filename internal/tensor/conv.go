package tensor

// The convolution entries of the packed-panel GEMM driver (gemm.go). A
// convolution is three products against the patch matrix P of its input
// (one row per output pixel, flattened over (b, oy, ox), one column per
// patch element (ci, ky, kx); Im2ColInto materializes it), and none of
// them derives any of P. Element (r, p) of P sits in the image at
// origin(r) + patch(p), where origin(r) = bi*c*h*w + oy*stride*w +
// ox*stride is where pixel r's window starts and patch(p) = ci*h*w +
// ky*w + kx is where element p sits in any window, so the microkernels
// read P straight from the image through those two offset tables (the
// indirect convolution algorithm). A convolution with padding first
// copies its input into a zero-bordered pooled image, whose zeros then
// enter the sums as fma(0, w, acc) just as materialized padding does.
//
//   - ConvInto, out = P W + bias: per block of mc pixels, A's rows are
//     the block's origins and its steps the patch offsets, B is W packed
//     once per call, and the block's (pixels, oc) product is scattered
//     into the NCHW planes of out with the bias added.
//   - ConvWeightGradInto, dW = Pᵀ G, with G the output gradient read as
//     its (pixels, oc) matrix: the two tables swap, so A's rows are patch
//     offsets and its steps the origins of one kc block of pixels, and B
//     is the block's rows of G, packed straight from the NCHW gradient.
//   - ConvInputGradInto, dx = col2im(G Wᵀ): A is G, read in place from
//     the NCHW gradient one image at a time, and the column gradient of
//     about kc pixels' worth of whole images lands in pooled scratch and
//     is scattered into dx at once.
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

// padImages returns the images of xd copied into a zero border g.pad
// elements wide, the padding-free geometry that reads them, and the pooled
// buffer that holds them, for Put. Without padding it returns xd and g
// themselves and a nil buffer.
func padImages[T Elem](ks *kernelSet[T], xd []T, g convGeom) ([]T, convGeom, *Tensor) {
	if g.pad == 0 {
		return xd, g, nil
	}
	p := g
	p.h, p.w, p.pad = g.h+2*g.pad, g.w+2*g.pad, 0
	buf := Shared.GetRaw(ks.dt, p.b*p.c*p.h*p.w)
	pd := ks.data(buf)
	clear(pd)
	for plane := 0; plane < g.b*g.c; plane++ {
		for y := 0; y < g.h; y++ {
			copy(pd[(plane*p.h+y+g.pad)*p.w+g.pad:][:g.w], xd[(plane*g.h+y)*g.w:][:g.w])
		}
	}
	return pd, p, buf
}

// pixelOrigins writes the image offset at which the window of each pixel
// in [r0, r0+len(dst)) starts, for a padding-free g. It divides once per
// output row, not per pixel.
func pixelOrigins(dst []int, r0 int, g convGeom) {
	for i := 0; i < len(dst); {
		row, ox := (r0+i)/g.ow, (r0+i)%g.ow // row = bi*oh + oy
		at := row/g.oh*g.c*g.h*g.w + row%g.oh*g.stride*g.w
		for ; ox < g.ow && i < len(dst); ox, i = ox+1, i+1 {
			dst[i] = at + ox*g.stride
		}
	}
}

// patchOffsets writes the offset from a window's origin of each patch
// element of kernel rows kr0, kr0+1, … (len(dst)/kw of them), for a
// padding-free g.
func patchOffsets(dst []int, kr0 int, g convGeom) {
	for q := range dst {
		kr := kr0 + q/g.kw // kr = ci*kh + ky
		dst[q] = kr/g.kh*g.h*g.w + kr%g.kh*g.w + q%g.kw
	}
}

func convForward[T Elem](ks *kernelSet[T], workers int, od, xd, wd, bd []T, g convGeom) {
	xd, g, padded := padImages(ks, xd, g)
	n := g.b * g.hw()
	blocks := (n + mc - 1) / mc
	if blocks > 1 && workers > 1 && n*g.k() >= parallelThreshold {
		parallelChunks(workers, blocks, func(c0, c1 int) {
			convForwardBlocks(ks, od, xd, wd, bd, g, c0, c1)
		})
	} else {
		convForwardBlocks(ks, od, xd, wd, bd, g, 0, blocks)
	}
	Shared.Put(padded)
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
	buf := Shared.GetRaw(ks.dt, kBlocks*wStride+mc*oc)
	scratch := ks.data(buf)
	wp, prod := scratch[:kBlocks*wStride], scratch[kBlocks*wStride:]
	for p0 := 0; p0 < k; p0 += kc {
		packB(wp[p0/kc*wStride:], wd, nr, p0, min(kc, k-p0), oc, oc, 1)
	}
	tab := getOffsets(k + mc)
	steps, rows := (*tab)[:k], (*tab)[k:]
	patchOffsets(steps, 0, g)
	for blk := c0; blk < c1; blk++ {
		r0 := blk * mc
		r1 := min(r0+mc, n)
		pixelOrigins(rows[:r1-r0], r0, g)
		for p0 := 0; p0 < k; p0 += kc {
			gemmBlocks(ks, prod, xd, rows[:r1-r0], steps[p0:], wp[p0/kc*wStride:], 0, 1, oc, min(kc, k-p0), p0 == 0)
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
	offsetTables.Put(tab)
	Shared.Put(buf)
}

func convWeightGrad[T Elem](ks *kernelSet[T], workers int, dwd, xd, gd []T, g convGeom) {
	// Workers split dW's rows at kernel-row boundaries.
	xd, g, padded := padImages(ks, xd, g)
	rows := g.c * g.kh
	if rows > 1 && workers > 1 && g.b*g.hw()*g.k() >= parallelThreshold {
		parallelChunks(workers, rows, func(kr0, kr1 int) {
			convWeightGradRows(ks, dwd, xd, gd, g, kr0, kr1)
		})
	} else {
		convWeightGradRows(ks, dwd, xd, gd, g, 0, rows)
	}
	Shared.Put(padded)
}

// convWeightGradRows computes the dW rows of kernel rows [kr0, kr1).
func convWeightGradRows[T Elem](ks *kernelSet[T], dwd, xd, gd []T, g convGeom, kr0, kr1 int) {
	// dW (k, oc) = Pᵀ G: m = k, n = oc, and the product's k is the pixel
	// count, blocked by kc exactly as MatMulTransAInto blocks it.
	nr, oc := ks.nr, g.oc
	m, n := (kr1-kr0)*g.kw, g.b*g.hw()
	nPanels, nBlocks := (oc+nr-1)/nr, (m+mc-1)/mc
	kcb := min(kc, n)
	buf := Shared.GetRaw(ks.dt, nPanels*kcb*nr+nBlocks*mr*nr)
	bp := ks.data(buf)
	tab := getOffsets(m + kcb)
	rows, steps := (*tab)[:m], (*tab)[m:]
	patchOffsets(rows, kr0, g)
	for p0 := 0; p0 < n; p0 += kc {
		kb := min(kc, n-p0)
		pixelOrigins(steps[:kb], p0, g)
		packGrad(bp, gd, p0, kb, nr, g)
		gemmBlocks(ks, dwd[kr0*g.kw*oc:], xd, rows, steps, bp, 0, nBlocks, oc, kb, p0 == 0)
	}
	offsetTables.Put(tab)
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
	// is oc.
	nr, k, hw, oc := ks.nr, g.k(), g.hw(), g.oc
	nPanels, nBlocks := (k+nr-1)/nr, (hw+mc-1)/mc
	kcb := min(kc, oc)
	buf := Shared.GetRaw(ks.dt, per*hw*k+nPanels*kcb*nr+nBlocks*mr*nr)
	scratch := ks.data(buf)
	cols, bp := scratch[:per*hw*k], scratch[per*hw*k:]
	// A row of G_b is one pixel across the planes: A(i, p) = G_b[i + p*hw].
	tab := getOffsets(hw + oc)
	rows, steps := strided((*tab)[:hw], (*tab)[hw:], 1, hw)
	img := g.c * g.h * g.w
	for grp := c0; grp < c1; grp++ {
		b0 := grp * per
		b1 := min(b0+per, g.b)
		for p0 := 0; p0 < oc; p0 += kc {
			kb := min(kc, oc-p0)
			packB(bp, wd, nr, p0, kb, k, 1, oc)
			for bi := b0; bi < b1; bi++ {
				gemmBlocks(ks, cols[(bi-b0)*hw*k:], gd[bi*oc*hw:], rows, steps[p0:], bp, 0, nBlocks, k, kb, p0 == 0)
			}
		}
		clear(dxd[b0*img : b1*img])
		col2imRange(dxd, cols, b0, b1, g)
	}
	offsetTables.Put(tab)
	Shared.Put(buf)
}
