package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a valid convolution with
// the given input size, kernel size, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
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

// im2colRange expands the patches of batch images [b0, b1). The loops are
// ordered (ci, ky) outer / (ox, kx) inner so the row-validity check runs
// once per kernel row, and each in-bounds kx run becomes one contiguous
// kw-element move — the padding-free interior (the common case) executes
// no per-element bounds logic at all. For the CNN's width 5 the move is a
// parallel assignment over constant-width slices, which compiles to plain
// loads and stores; a copy call per 5-element row cost as much as the
// moves themselves. Other widths keep copy.
func im2colRange[T Elem](xd, cd []T, b0, b1, c, h, w, outH, outW, kh, kw, stride, pad, rowLen int) {
	for bi := b0; bi < b1; bi++ {
		rowBase := bi * outH * outW
		for oy := 0; oy < outH; oy++ {
			rowY := (rowBase + oy*outW) * rowLen
			for ci := 0; ci < c; ci++ {
				base := ((bi * c) + ci) * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					rowOff := (ci*kh + ky) * kw
					if iy < 0 || iy >= h {
						for ox := 0; ox < outW; ox++ {
							d := rowY + ox*rowLen + rowOff
							zero := cd[d : d+kw]
							for i := range zero {
								zero[i] = 0
							}
						}
						continue
					}
					src := base + iy*w
					for ox := 0; ox < outW; ox++ {
						ix0 := ox*stride - pad
						d := rowY + ox*rowLen + rowOff
						if ix0 >= 0 && ix0+kw <= w {
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
							if ix >= 0 && ix < w {
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
// dst.
func (c Compute) Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires a 4-D tensor, got shape %v", x.shape))
	}
	workers := c.workers()
	b, ch, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col kernel %dx%d too large for input %dx%d", kh, kw, h, w))
	}
	rowLen := ch * kh * kw
	if dst.Rank() != 2 || dst.shape[0] != b*outH*outW || dst.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Im2Col dst shape %v, want [%d %d]", dst.shape, b*outH*outW, rowLen))
	}
	assertSameDType("im2col", x, dst)
	if x.dt == Float32 {
		im2colDispatch(workers, x.data32, dst.data32, b, ch, h, w, outH, outW, kh, kw, stride, pad, rowLen)
	} else {
		im2colDispatch(workers, x.data, dst.data, b, ch, h, w, outH, outW, kh, kw, stride, pad, rowLen)
	}
	return dst
}

func im2colDispatch[T Elem](workers int, xd, cd []T, b, c, h, w, outH, outW, kh, kw, stride, pad, rowLen int) {
	if batchParallelism(workers, b, b*outH*outW*rowLen) {
		parallelChunks(workers, b, func(b0, b1 int) {
			im2colRange(xd, cd, b0, b1, c, h, w, outH, outW, kh, kw, stride, pad, rowLen)
		})
	} else {
		im2colRange(xd, cd, 0, b, c, h, w, outH, outW, kh, kw, stride, pad, rowLen)
	}
}

// col2imRange scatters the column gradients of batch images [b0, b1).
// Mirrors im2colRange's loop order: the row-validity check is hoisted to
// once per kernel row and interior kx runs accumulate with no per-element
// bounds logic.
func col2imRange[T Elem](xd, cd []T, b0, b1, c, h, w, outH, outW, kh, kw, stride, pad, rowLen int) {
	for bi := b0; bi < b1; bi++ {
		rowBase := bi * outH * outW
		for oy := 0; oy < outH; oy++ {
			rowY := (rowBase + oy*outW) * rowLen
			for ci := 0; ci < c; ci++ {
				base := ((bi * c) + ci) * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					rowOff := (ci*kh + ky) * kw
					dst := xd[base+iy*w:]
					for ox := 0; ox < outW; ox++ {
						ix0 := ox*stride - pad
						d := rowY + ox*rowLen + rowOff
						if ix0 >= 0 && ix0+kw <= w {
							out := dst[ix0 : ix0+kw]
							src := cd[d : d+kw]
							for i := range out {
								out[i] += src[i]
							}
							continue
						}
						src := cd[d : d+kw]
						for kx := range src {
							ix := ix0 + kx
							if ix >= 0 && ix < w {
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
	if img.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Col2Im img shape %v, want 4-D", img.shape))
	}
	workers := c.workers()
	b, ch, h, w := img.shape[0], img.shape[1], img.shape[2], img.shape[3]
	outH := ConvOutSize(h, kh, stride, pad)
	outW := ConvOutSize(w, kw, stride, pad)
	rowLen := ch * kh * kw
	if cols.Rank() != 2 || cols.shape[0] != b*outH*outW || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v, want [%d %d]", cols.shape, b*outH*outW, rowLen))
	}
	assertSameDType("col2im", img, cols)
	img.Zero()
	if img.dt == Float32 {
		col2imDispatch(workers, img.data32, cols.data32, b, ch, h, w, outH, outW, kh, kw, stride, pad, rowLen)
	} else {
		col2imDispatch(workers, img.data, cols.data, b, ch, h, w, outH, outW, kh, kw, stride, pad, rowLen)
	}
	return img
}

func col2imDispatch[T Elem](workers int, xd, cd []T, b, c, h, w, outH, outW, kh, kw, stride, pad, rowLen int) {
	if batchParallelism(workers, b, b*outH*outW*rowLen) {
		parallelChunks(workers, b, func(b0, b1 int) {
			col2imRange(xd, cd, b0, b1, c, h, w, outH, outW, kh, kw, stride, pad, rowLen)
		})
	} else {
		col2imRange(xd, cd, 0, b, c, h, w, outH, outW, kh, kw, stride, pad, rowLen)
	}
}
