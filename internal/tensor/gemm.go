package tensor

// One packed-panel GEMM driver for both dtypes.
//
// All three products (plain, Aᵀ, Bᵀ) are dd = op(A) @ op(B) with the
// operands described by strides, and run through the same blocking:
//
//   - B (or op(B)) is always packed into nr-column tile-major panels: step
//     p of the microkernel reads nr consecutive elements, zero-padded past
//     the matrix edge. A packed panel of Bᵀ *is* the transpose, so no
//     variant ever materializes one.
//   - A is never packed: it is read in place through two offset tables,
//     A(i, p) = a[rows[i] + steps[p]]. The plain and Bᵀ products pass
//     rows[i] = i*k and steps[p] = p, the Aᵀ product rows[i] = i and
//     steps[p] = p*m, and a convolution its pixels' origins and its patch
//     offsets in the image (conv.go), so one addressing mode serves every
//     product. No product any model runs has enough column panels to repay
//     a packed A block.
//   - k is blocked by kc and dst rows by mc. The first k-block runs the
//     microkernels in store mode, so dst is never pre-zeroed. Partial
//     tiles at the m and n edges go through a scratch tile.
//
// The driver is generic over the element type; a kernelSet plugs in the
// dtype's tile width and its AVX2+FMA microkernels (gemm_amd64.s, gated by
// useFMA). tileGo is the portable twin of every kernel shape.

const (
	// mr is the microkernel tile height for both dtypes: four A
	// broadcasts against two ymm of B keep eight accumulators busy without
	// spilling.
	mr = 4
	// maxNR is the widest tile of any kernelSet (float32's 16 lanes).
	maxNR = 16
	// kc is the k-dimension blocking: one packed B panel of kc steps
	// (kc*64 B = 16 KiB for either dtype) stays L1-resident across the
	// whole i loop.
	kc = 256
	// mc is the dst-row blocking: an A block (mc*kc elements, 128 or 256
	// KiB) stays L2-resident while the B panels stream through L1. It is
	// also the unit of goroutine fan-out.
	mc = 128
	// parallelThreshold is the number of output elements above which the
	// GEMM driver and the im2col/col2im transforms fan out across
	// goroutines. Small problems are faster single-threaded.
	parallelThreshold = 64 * 1024
)

// asmTile is the signature of the assembly microkernels:
// d[r*ldd+c] (+)= sum_p a_r[off[p]]*b[p*nr+c] over kb >= 1 packed steps of
// b, for r < mr and c < nr (nr/2 for the narrow tile); see
// gemm_kernels_amd64.h.
type asmTile[T Elem] func(a0, a1, a2, a3 *T, off *int, b *T, kb uintptr, d *T, ldd uintptr)

// Indices into kernelSet.asm.
const (
	tileFull   = iota // nr wide, d += tile
	tileStore         // nr wide, d = tile
	tileNarrow        // nr/2 wide, d += tile
)

// kernelSet is what distinguishes the dtypes to the driver: a full tile is
// two ymm registers wide (nr columns, 64 bytes per packed k step either
// way), the narrow tile one.
type kernelSet[T Elem] struct {
	dt   DType
	nr   int
	data func(*Tensor) []T // the backing slice of a pooled panel
	asm  [3]asmTile[T]     // nil without assembly support
}

var (
	kernels32 = kernelSet[float32]{dt: Float32, nr: 16, data: (*Tensor).Data32, asm: asmKernels32}
	kernels64 = kernelSet[float64]{dt: Float64, nr: 8, data: (*Tensor).Data, asm: asmKernels64}
)

// tileGo is the portable twin of the assembly microkernels: over kb steps
// of an nr-wide packed panel b it accumulates the mr x w tile
// sum_p a_r[off[p]]*b[p*nr+c] — w is nr, or nr/2 for tileNarrow — then
// adds it into d[r*ldd+c] (tileStore overwrites d instead).
func tileGo[T Elem](kind int, a0, a1, a2, a3 []T, off []int, b []T, nr, kb int, d []T, ldd int) {
	w := nr
	if kind == tileNarrow {
		w /= 2
	}
	var acc [mr * maxNR]T
	for p, s := range off[:kb] {
		brow := b[p*nr : p*nr+w]
		for r, av := range [mr]T{a0[s], a1[s], a2[s], a3[s]} {
			accRow := acc[r*w : r*w+w]
			accRow = accRow[:len(brow)]
			for c, bv := range brow {
				accRow[c] += av * bv
			}
		}
	}
	for r := 0; r < mr; r++ {
		drow := d[r*ldd : r*ldd+w]
		accRow := acc[r*w : r*w+w]
		if kind == tileStore {
			copy(drow, accRow)
			continue
		}
		for c := range drow {
			drow[c] += accRow[c]
		}
	}
}

// gemm computes dd = op(A) @ op(B) where op(A)'s element (i,p) lives at
// ad[i*ars + p*acs] and op(B)'s element (p,j) at bd[p*brs + j*bcs]. dd is
// (m,n) row-major and need not be pre-zeroed. workers bounds the goroutine
// fan-out; the block decomposition and each block's arithmetic do not
// depend on it, so results are bitwise independent of the budget.
func gemm[T Elem](ks *kernelSet[T], workers int, dd, ad, bd []T, m, n, k, ars, acs, brs, bcs int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dd[:m*n])
		return
	}
	nr := ks.nr
	nPanels := (n + nr - 1) / nr
	nBlocks := (m + mc - 1) / mc
	tab := getOffsets(m + k)
	rows, steps := strided((*tab)[:m], (*tab)[m:], ars, acs)
	for p0 := 0; p0 < k; p0 += kc {
		kb := min(kc, k-p0)
		store := p0 == 0 // first k-block overwrites dst, the rest accumulate
		// One pooled buffer holds the packed B panels and, behind them, an
		// edge-tile scratch per dst-row block (a stack tile would escape
		// through the indirect microkernel call).
		bpt := Shared.GetRaw(ks.dt, nPanels*kb*nr+nBlocks*mr*nr)
		bp := ks.data(bpt)
		packB(bp, bd, nr, p0, kb, n, brs, bcs)
		if nBlocks > 1 && m*n >= parallelThreshold && workers > 1 {
			parallelChunks(workers, nBlocks, func(c0, c1 int) {
				gemmBlocks(ks, dd, ad, rows, steps[p0:], bp, c0, c1, n, kb, store)
			})
		} else {
			gemmBlocks(ks, dd, ad, rows, steps[p0:], bp, 0, nBlocks, n, kb, store)
		}
		Shared.Put(bpt)
	}
	offsetTables.Put(tab)
}

// strided fills rows[i] = i*ars and steps[p] = p*acs, the offset tables
// of A(i, p) = a[i*ars + p*acs], and returns them.
func strided(rows, steps []int, ars, acs int) ([]int, []int) {
	for i := range rows {
		rows[i] = i * ars
	}
	for p := range steps {
		steps[p] = p * acs
	}
	return rows, steps
}

// gemmBlocks multiplies dst-row blocks [c0, c1) of mc rows each against
// the packed B panels of one k-block: A(i, p) is ad[rows[i] + steps[p]]
// for the len(rows) dst rows and the block's kb steps. Each block has its
// own edge scratch, so concurrent blocks never share any. store selects
// the non-accumulating epilogue (dst is overwritten rather than added to).
func gemmBlocks[T Elem](ks *kernelSet[T], dd, ad []T, rows, steps []int, bp []T, c0, c1, n, kb int, store bool) {
	nr, m := ks.nr, len(rows)
	fullKind := tileFull
	if store {
		fullKind = tileStore
	}
	nPanels := (n + nr - 1) / nr
	for blk := c0; blk < c1; blk++ {
		// tile is the block's edge scratch: partial tiles accumulate here
		// first, then only the in-bounds elements reach dst.
		tile := bp[nPanels*kb*nr+blk*mr*nr:][:mr*nr]
		i0 := blk * mc
		mb := min(mc, m-i0)
		mPanels := (mb + mr - 1) / mr
		for pj := 0; pj < nPanels; pj++ {
			j0 := pj * nr
			wj := min(nr, n-j0)
			bpanel := bp[pj*kb*nr:]
			for pi := 0; pi < mPanels; pi++ {
				i := i0 + pi*mr
				hi := min(mr, mb-pi*mr)
				// Origins of the four A rows; rows past the edge alias the
				// last one, their results land in scratch rows that are
				// discarded.
				var o [mr]int
				for r := range o {
					o[r] = rows[i+min(r, hi-1)]
				}
				d, ldd, kind := dd[i*n+j0:], n, fullKind
				edge := hi < mr || wj < nr
				if edge {
					clear(tile)
					d, ldd, kind = tile, nr, tileFull
					if wj <= nr/2 {
						kind = tileNarrow
					}
				}
				if useFMA {
					ks.asm[kind](&ad[o[0]], &ad[o[1]], &ad[o[2]], &ad[o[3]], &steps[0], &bpanel[0], uintptr(kb), &d[0], uintptr(ldd))
				} else {
					tileGo(kind, ad[o[0]:], ad[o[1]:], ad[o[2]:], ad[o[3]:], steps, bpanel, nr, kb, d, ldd)
				}
				if !edge {
					continue
				}
				for r := 0; r < hi; r++ {
					drow := dd[(i+r)*n+j0 : (i+r)*n+j0+wj]
					trow := tile[r*nr:]
					if store {
						copy(drow, trow)
						continue
					}
					for c := range drow {
						drow[c] += trow[c]
					}
				}
			}
		}
	}
}

// packB packs k-range [p0, p0+kb) of op(B), all n columns, into nr-column
// tile-major panels: bp[panel*kb*nr + p*nr + c]. Columns past n in the
// final panel are zero-filled.
func packB[T Elem](bp, bd []T, nr, p0, kb, n, brs, bcs int) {
	for pj := 0; pj*nr < n; pj++ {
		dst := bp[pj*kb*nr:]
		j0 := pj * nr
		cols := min(nr, n-j0)
		if bcs == 1 && cols == nr {
			// Contiguous source rows: straight nr-element copies.
			for p := 0; p < kb; p++ {
				s := (p0+p)*brs + j0
				copy(dst[p*nr:p*nr+nr], bd[s:s+nr])
			}
			continue
		}
		for p := 0; p < kb; p++ {
			q, s := p*nr, (p0+p)*brs+j0*bcs
			for c := 0; c < nr; c++ {
				if c < cols {
					dst[q+c] = bd[s+c*bcs]
				} else {
					dst[q+c] = 0
				}
			}
		}
	}
}
