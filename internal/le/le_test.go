package le

import (
	"math"
	"reflect"
	"testing"
)

// TestAppendersRoundTrip encodes one value with every appender and reads
// each back with the matching Reader method.
func TestAppendersRoundTrip(t *testing.T) {
	f64s := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	f32s := []float64{0.25, -3, float64(math.MaxFloat32), math.Inf(-1)} // exact in float32
	var b []byte
	b = append(b, 0xA5)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 0x0102030405060708)
	b = AppendF64(b, -0.125)
	b = AppendF64s(b, f64s)
	b = AppendF32s(b, f32s)
	b = append(b, "tail"...)
	if want := 1 + 4 + 8 + 8 + 8*len(f64s) + 4*len(f32s) + 4; len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
	if b[1] != 0xEF || b[5] != 0x08 {
		t.Fatalf("not little-endian: % x", b[:13])
	}

	r := NewReader(b)
	if got := r.U8(); got != 0xA5 {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.F64(); got != -0.125 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64s(uint64(len(f64s))); !reflect.DeepEqual(got, f64s) {
		t.Fatalf("F64s = %v, want %v", got, f64s)
	}
	got32 := make([]float64, len(f32s))
	r.F32sInto(got32)
	if !reflect.DeepEqual(got32, f32s) {
		t.Fatalf("F32sInto = %v, want %v", got32, f32s)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d before the tail, want 4", r.Len())
	}
	if got := string(r.Bytes(4)); got != "tail" {
		t.Fatalf("Bytes = %q", got)
	}
	if r.Len() != 0 || r.Err() != nil {
		t.Fatalf("after the last read: Len %d, Err %v", r.Len(), r.Err())
	}
	if v := NewReader(nil).F64s(0); v == nil || len(v) != 0 {
		t.Fatalf("F64s(0) = %#v, want empty and non-nil", v)
	}
}

// TestReaderStickyError: after the first failed read every later read
// returns zero — even one that would fit — and Err reports the first
// failure, unchanged.
func TestReaderStickyError(t *testing.T) {
	r := NewReader(AppendU32(nil, 7))
	if r.U64() != 0 {
		t.Fatal("a short U64 returned a value")
	}
	first := r.Err()
	if first == nil {
		t.Fatal("a short U64 did not fail")
	}
	if r.Len() != 4 {
		t.Fatalf("a failed read consumed bytes: Len %d", r.Len())
	}
	if r.U8() != 0 || r.U32() != 0 || r.F64() != 0 || r.Bytes(1) != nil ||
		r.F64s(0) != nil || r.Count(0, 1) != 0 {
		t.Fatal("a read after the failure returned a value")
	}
	dst := []float64{9}
	r.F64sInto(dst)
	r.F32sInto(dst)
	if dst[0] != 9 {
		t.Fatal("a read after the failure wrote into dst")
	}
	if err := r.Err(); err != first {
		t.Fatalf("Err changed from %v to %v", first, err)
	}
}

// TestBytesIsAView: Bytes lends the underlying slice, capped at n so an
// append to it cannot overwrite the bytes that follow.
func TestBytesIsAView(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	r := NewReader(src)
	r.U8()
	v := r.Bytes(2)
	if &v[0] != &src[1] {
		t.Fatal("Bytes returned a copy")
	}
	src[2] = 42
	if v[1] != 42 {
		t.Fatal("Bytes does not see writes to the source")
	}
	if cap(v) != 2 {
		t.Fatalf("cap(view) = %d, want 2", cap(v))
	}
	if r.Bytes(-1) != nil || r.Err() == nil {
		t.Fatal("a negative length was read")
	}
}

// TestHostileCountsRefusedWithoutAllocating feeds counts that overflow an
// n*width product in 32 bits (0x20000001*8 and 0x40000001*4 wrap to 8 and
// 4 there, which fit the 8 bytes present) or in 64 bits. Each must fail,
// and refusing it must allocate nothing.
func TestHostileCountsRefusedWithoutAllocating(t *testing.T) {
	buf := make([]byte, 8)
	for _, n := range []uint64{9, 0x20000001, 0x40000001, math.MaxUint32, 1 << 61, math.MaxUint64} {
		for _, width := range []int{4, 8} {
			r := NewReader(buf)
			if r.Count(n, width) != 0 || r.Err() == nil {
				t.Fatalf("Count(%#x, %d) over 8 bytes succeeded", n, width)
			}
			allocs := testing.AllocsPerRun(20, func() {
				r := Reader{b: buf}
				if width == 8 {
					r.F64s(n)
				} else {
					r.Count(n, width)
				}
				if !r.failed {
					t.Fatalf("a count of %#x %d-byte elements fitted 8 bytes", n, width)
				}
			})
			if allocs != 0 {
				t.Fatalf("refusing %#x %d-byte elements allocated %v times", n, width, allocs)
			}
		}
		if v := NewReader(buf).F64s(n); v != nil {
			t.Fatalf("F64s(%#x) over 8 bytes returned %d values", n, len(v))
		}
	}
	if NewReader(buf).Count(2, 4) != 2 || NewReader(buf).Count(1, 8) != 1 {
		t.Fatal("a count that fits was refused")
	}
}
