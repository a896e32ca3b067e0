package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a valid convolution with
// the given input size, kernel size, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// convGeom is one convolution's shape: b images of c channels, h x w
// each (NCHW), a kh x kw kernel moved by stride over the zero-padded
// input, oc output channels of oh x ow planes. The patch matrix it
// implies has one row per output pixel, flattened over (b, oy, ox), and
// one column per (ci, ky, kx) — k() of them.
type convGeom struct {
	b, c, h, w, oc      int
	kh, kw, stride, pad int
	oh, ow              int
}

// newConvGeom reads the input geometry from the 4-D x (or, for the
// adjoints, from the image being written) and derives the output planes;
// the caller sets oc.
func newConvGeom(op string, x *Tensor, kh, kw, stride, pad int) convGeom {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: %s requires a 4-D image, got shape %v", op, x.shape))
	}
	g := convGeom{b: x.shape[0], c: x.shape[1], h: x.shape[2], w: x.shape[3], kh: kh, kw: kw, stride: stride, pad: pad}
	g.oh, g.ow = ConvOutSize(g.h, kh, stride, pad), ConvOutSize(g.w, kw, stride, pad)
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: %s kernel %dx%d too large for input %dx%d", op, kh, kw, g.h, g.w))
	}
	return g
}

// k is the patch length, c*kh*kw.
func (g convGeom) k() int { return g.c * g.kh * g.kw }

// hw is the size of one output plane.
func (g convGeom) hw() int { return g.oh * g.ow }

// want panics unless t has x's dtype and the given shape (rank <= 4).
func (g convGeom) want(op string, x, t *Tensor, shape ...int) {
	ok := len(t.shape) == len(shape)
	for i := 0; ok && i < len(shape); i++ {
		ok = t.shape[i] == shape[i]
	}
	if !ok {
		var w [4]int
		copy(w[:], shape)
		panicShape(op, t.shape, w, len(shape))
	}
	assertSameDType(op, x, t)
}

// panicShape reports a bad operand shape. It takes the wanted shape by
// value so that want's variadic never escapes (see panicDim).
//
//go:noinline
func panicShape(op string, got []int, want [4]int, rank int) {
	panic(fmt.Sprintf("tensor: %s operand shape %v, want %v", op, got, want[:rank]))
}

// batchParallelism reports whether a batch-dimension transform of the
// given total size should fan out across the given worker budget. A
// fanned-out transform splits [0,b) with parallelChunks: each batch index
// touches a disjoint slice of both the image and the column matrix, so
// the split is race-free for im2col and col2im alike. The serial path
// calls the range worker directly (no closure, no goroutines).
func batchParallelism(workers, b, totalElems int) bool {
	return b > 1 && totalElems >= parallelThreshold && workers > 1
}

// im2colRange expands the patches of batch images [b0, b1), whose rows
// start at cd[0]. The loops are ordered (ci, ky) outer / (ox, kx) inner
// so the row-validity check runs once per kernel row, and each in-bounds
// kx run becomes one contiguous kw-element move — the padding-free
// interior (the common case) executes no per-element bounds logic at
// all. For the CNN's width 5 the move is a parallel assignment over
// constant-width slices, which compiles to plain loads and stores; a copy
// call per 5-element row cost as much as the moves themselves. Other
// widths keep copy.
func im2colRange[T Elem](xd, cd []T, b0, b1 int, g convGeom) {
	rowLen, kw := g.k(), g.kw
	for bi := b0; bi < b1; bi++ {
		rowBase := (bi - b0) * g.hw()
		for oy := 0; oy < g.oh; oy++ {
			rowY := (rowBase + oy*g.ow) * rowLen
			for ci := 0; ci < g.c; ci++ {
				base := ((bi * g.c) + ci) * g.h * g.w
				for ky := 0; ky < g.kh; ky++ {
					iy := oy*g.stride + ky - g.pad
					rowOff := (ci*g.kh + ky) * kw
					if iy < 0 || iy >= g.h {
						for ox := 0; ox < g.ow; ox++ {
							d := rowY + ox*rowLen + rowOff
							zero := cd[d : d+kw]
							for i := range zero {
								zero[i] = 0
							}
						}
						continue
					}
					src := base + iy*g.w
					for ox := 0; ox < g.ow; ox++ {
						ix0 := ox*g.stride - g.pad
						d := rowY + ox*rowLen + rowOff
						if ix0 >= 0 && ix0+kw <= g.w {
							s := src + ix0
							if kw == 5 {
								o, in := cd[d:d+5:d+5], xd[s:s+5:s+5]
								o[0], o[1], o[2], o[3], o[4] = in[0], in[1], in[2], in[3], in[4]
							} else {
								copy(cd[d:d+kw], xd[s:s+kw])
							}
							continue
						}
						dst := cd[d : d+kw]
						for kx := range dst {
							ix := ix0 + kx
							if ix >= 0 && ix < g.w {
								dst[kx] = xd[src+ix]
							} else {
								dst[kx] = 0
							}
						}
					}
				}
			}
		}
	}
}

// Im2ColInto expands image patches of x (batch, channels, height, width)
// into rows of dst, which must have shape (batch*outH*outW,
// channels*kh*kw) and x's dtype. Every element of dst is written. Returns
// dst. No layer calls it — a convolution derives its patches from the
// image block by block (conv.go) — but it is the materialized patch
// matrix the conv entries are tested against.
func (c Compute) Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) *Tensor {
	g := newConvGeom("Im2Col", x, kh, kw, stride, pad)
	g.want("Im2Col", x, dst, g.b*g.hw(), g.k())
	if x.dt == Float32 {
		im2colDispatch(c.workers(), x.data32, dst.data32, g)
	} else {
		im2colDispatch(c.workers(), x.data, dst.data, g)
	}
	return dst
}

func im2colDispatch[T Elem](workers int, xd, cd []T, g convGeom) {
	rows := g.hw()
	if batchParallelism(workers, g.b, g.b*rows*g.k()) {
		parallelChunks(workers, g.b, func(b0, b1 int) {
			im2colRange(xd, cd[b0*rows*g.k():], b0, b1, g)
		})
	} else {
		im2colRange(xd, cd, 0, g.b, g)
	}
}

// col2imRange scatters the column gradients of batch images [b0, b1),
// whose rows start at cd[0]. The loops are ordered (oy, ci, ky) outer /
// (ox, kx) inner so the row-validity check runs once per kernel row, and
// interior kx runs accumulate with no per-element bounds logic. Every
// image element receives its contributions in (oy, ox) order.
func col2imRange[T Elem](xd, cd []T, b0, b1 int, g convGeom) {
	rowLen, kw := g.k(), g.kw
	for bi := b0; bi < b1; bi++ {
		rowBase := (bi - b0) * g.hw()
		for oy := 0; oy < g.oh; oy++ {
			rowY := (rowBase + oy*g.ow) * rowLen
			for ci := 0; ci < g.c; ci++ {
				base := ((bi * g.c) + ci) * g.h * g.w
				for ky := 0; ky < g.kh; ky++ {
					iy := oy*g.stride + ky - g.pad
					if iy < 0 || iy >= g.h {
						continue
					}
					rowOff := (ci*g.kh + ky) * kw
					dst := xd[base+iy*g.w:]
					for ox := 0; ox < g.ow; ox++ {
						ix0 := ox*g.stride - g.pad
						d := rowY + ox*rowLen + rowOff
						src := cd[d : d+kw]
						if ix0 >= 0 && ix0+kw <= g.w {
							out := dst[ix0 : ix0+kw]
							for i := range out {
								out[i] += src[i]
							}
							continue
						}
						for kx := range src {
							ix := ix0 + kx
							if ix >= 0 && ix < g.w {
								dst[ix] += src[kx]
							}
						}
					}
				}
			}
		}
	}
}

// Col2ImInto is the adjoint of Im2Col: it scatters column gradients back
// into img (batch, channels, height, width), accumulating overlapping
// contributions. img is zeroed first; cols must have shape
// (batch*outH*outW, channels*kh*kw) and img's dtype. Returns img.
func (c Compute) Col2ImInto(img, cols *Tensor, kh, kw, stride, pad int) *Tensor {
	g := newConvGeom("Col2Im", img, kh, kw, stride, pad)
	g.want("Col2Im", img, cols, g.b*g.hw(), g.k())
	img.Zero()
	if img.dt == Float32 {
		col2imDispatch(c.workers(), img.data32, cols.data32, g)
	} else {
		col2imDispatch(c.workers(), img.data, cols.data, g)
	}
	return img
}

func col2imDispatch[T Elem](workers int, xd, cd []T, g convGeom) {
	rows := g.hw()
	if batchParallelism(workers, g.b, g.b*rows*g.k()) {
		parallelChunks(workers, g.b, func(b0, b1 int) {
			col2imRange(xd, cd[b0*rows*g.k():], b0, b1, g)
		})
	} else {
		col2imRange(xd, cd, 0, g.b, g)
	}
}
