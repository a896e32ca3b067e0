// Package le is the one byte layer under the wire protocol and the
// federation snapshot: little-endian appenders that extend a byte slice,
// and a bounded Reader that walks one. No other non-test package imports
// encoding/binary (niidlint's codeccheck enforces it), so every byte a
// peer or a file can hand the program is decoded here, against the
// bytes actually present.
package le

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendU32 appends v as 4 bytes.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v as 8 bytes.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's IEEE-754 bits as 8 bytes.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendF64s appends every value of v as AppendF64 would, with no count.
// b grows once, up front; the loop then appends within its capacity.
func AppendF64s(b []byte, v []float64) []byte {
	b = slices.Grow(b, 8*len(v))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// AppendF32s appends every value of v narrowed to float32, 4 bytes each,
// with no count.
func AppendF32s(b []byte, v []float64) []byte {
	b = slices.Grow(b, 4*len(v))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(f)))
	}
	return b
}

// Reader decodes a byte slice front to back. Its first failure is sticky:
// after a failed read every later read returns zero and Err keeps
// reporting the first failure, so a decoder reads a whole layout and
// checks once. Refusing a read allocates nothing, however hostile the
// input; Err formats the failure when first asked. Errors name the offset
// and the sizes involved but no format: callers wrap them with their own.
type Reader struct {
	b   []byte
	off int

	failed bool
	fail   struct {
		at    int    // offset of the failed read
		n     uint64 // bytes needed, or elements declared
		width int    // 0 for a read of n bytes; else n elements of width bytes
	}
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// refuse records the first failed read.
func (r *Reader) refuse(n uint64, width int) {
	r.failed = true
	r.fail.at, r.fail.n, r.fail.width = r.off, n, width
}

// Err returns the first failed read's error, or nil.
func (r *Reader) Err() error {
	if r.failed && r.err == nil {
		f, left := r.fail, len(r.b)-r.fail.at
		if f.width == 0 {
			r.err = fmt.Errorf("truncated at offset %d (need %d bytes, have %d)", f.at, f.n, left)
		} else {
			r.err = fmt.Errorf("%d elements of %d bytes exceed the %d bytes left at offset %d", f.n, f.width, left, f.at)
		}
	}
	return r.err
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Bytes returns the next n bytes as a view into the underlying slice, not
// a copy, or nil when fewer than n remain.
func (r *Reader) Bytes(n int) []byte {
	if r.failed {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.refuse(uint64(n), 0)
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads 4 bytes.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads 8 bytes.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads 8 bytes as IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count checks a declared count of width-byte elements against the unread
// bytes and returns it as an int, or records a failure and returns 0. The
// bound is n > Len/width — a division, so no product can overflow on any
// word size — and it is taken before anything is allocated.
func (r *Reader) Count(n uint64, width int) int {
	if r.failed {
		return 0
	}
	if n > uint64(r.Len()/width) {
		r.refuse(n, width)
		return 0
	}
	return int(n)
}

// F64s reads n float64 values into a fresh slice — empty, not nil, for
// n == 0 — or returns nil when n values do not fit the unread bytes.
func (r *Reader) F64s(n uint64) []float64 {
	c := r.Count(n, 8)
	if r.failed {
		return nil
	}
	v := make([]float64, c)
	r.F64sInto(v)
	return v
}

// F64sInto fills dst with the next 8*len(dst) bytes as float64 values.
func (r *Reader) F64sInto(dst []float64) {
	b := r.Bytes(8 * r.Count(uint64(len(dst)), 8))
	if r.failed {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// F32sInto fills dst with the next 4*len(dst) bytes as float32 values,
// widened.
func (r *Reader) F32sInto(dst []float64) {
	b := r.Bytes(4 * r.Count(uint64(len(dst)), 4))
	if r.failed {
		return
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
	}
}
