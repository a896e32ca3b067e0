package tensor

// Generic element-wise kernels shared by the float64 and float32 backends.
// Each is instantiated twice by the dispatching Tensor methods; dotSlices
// accumulates in float64 regardless of the element type so norms keep
// full precision even on the float32 backend.

func fillSlice[T Elem](d []T, v T) {
	for i := range d {
		d[i] = v
	}
}

func addSlices[T Elem](dst, a, b []T) {
	b = b[:len(a)]
	dst = dst[:len(a)]
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// axpySlice computes t += s*o (the BLAS axpy).
func axpySlice[T Elem](t, o []T, s T) {
	o = o[:len(t)]
	for i := range t {
		t[i] += s * o[i]
	}
}

func dotSlices[T Elem](a, b []T) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func addRowVec[T Elem](d, v []T, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := d[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v[c]
		}
	}
}

func colSums[T Elem](dst, d []T, rows, cols int) {
	clear(dst)
	for r := 0; r < rows; r++ {
		row := d[r*cols : (r+1)*cols]
		for c := range row {
			dst[c] += row[c]
		}
	}
}

// convertSlice widens or narrows src into dst element-wise.
func convertSlice[D, S Elem](dst []D, src []S) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = D(src[i])
	}
}
