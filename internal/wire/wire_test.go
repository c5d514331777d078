package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gdn/internal/ids"
)

func TestRoundTripAllTypes(t *testing.T) {
	o := ids.Derive("wire-test")
	w := NewWriter(0)
	w.Uint8(0xab)
	w.Uint16(0xbeef)
	w.Uint32(0xdeadbeef)
	w.Uint64(0x0123456789abcdef)
	w.Int64(-42)
	w.Float64(math.Pi)
	w.Bool(true)
	w.Bool(false)
	w.Bytes32([]byte("hello world"))
	w.Str("gdn")
	w.OID(o)
	w.Count(7)
	for i := 0; i < 7; i++ {
		w.Uint8(uint8(i)) // a count is followed by its elements
	}

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xab {
		t.Errorf("Uint8 = %#x", got)
	}
	if got := r.Uint16(); got != 0xbeef {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool #1 = false")
	}
	if got := r.Bool(); got {
		t.Error("Bool #2 = true")
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte("hello world")) {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := r.Str(); got != "gdn" {
		t.Errorf("String = %q", got)
	}
	if got := r.OID(); got != o {
		t.Errorf("OID = %s", got)
	}
	if got := r.Count(); got != 7 {
		t.Errorf("Count = %d", got)
	}
	for i := 0; i < 7; i++ {
		if got := r.Uint8(); got != uint8(i) {
			t.Errorf("element %d = %d", i, got)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestTruncatedMessage(t *testing.T) {
	w := NewWriter(0)
	w.Uint64(1)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uint64()
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

func TestErrorSticksAndReturnsZero(t *testing.T) {
	r := NewReader([]byte{0x01})
	r.Uint32() // fails: only one byte
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Everything after the first error must be inert zero values.
	if r.Uint8() != 0 || r.Str() != "" || r.Bytes32() != nil || !r.OID().IsNil() {
		t.Fatal("reads after error were not zero values")
	}
	if r.Done() == nil {
		t.Fatal("Done must report the sticky error")
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(1)
	w.Uint8(2)
	r := NewReader(w.Bytes())
	r.Uint8()
	if err := r.Done(); err == nil {
		t.Fatal("Done ignored trailing bytes")
	}
}

func TestBytes32SizeLimit(t *testing.T) {
	// A hostile length prefix must be rejected before allocation.
	var b []byte
	b = append(b, 0xff, 0xff, 0xff, 0xff) // length = 2^32-1
	r := NewReader(b)
	if got := r.Bytes32(); got != nil {
		t.Fatal("oversized Bytes32 returned data")
	}
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", r.Err())
	}
}

func TestCountLimit(t *testing.T) {
	var b []byte
	b = append(b, 0x7f, 0xff, 0xff, 0xff)
	r := NewReader(b)
	if got := r.Count(); got != 0 {
		t.Fatalf("oversized Count = %d", got)
	}
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", r.Err())
	}
}

// TestCountBeyondRemainingRejected: a count within MaxCount that the
// rest of the message cannot hold (every element takes at least one
// byte) fails as truncated, so no caller preallocates from it; a count
// the remaining bytes can hold still decodes.
func TestCountBeyondRemainingRejected(t *testing.T) {
	w := NewWriter(0)
	w.Count(MaxCount)
	r := NewReader(w.Bytes())
	if got := r.Count(); got != 0 {
		t.Fatalf("Count over remaining = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}

	w = NewWriter(0)
	w.Count(3)
	w.Uint8(1)
	w.Uint8(2)
	w.Uint8(3)
	r = NewReader(w.Bytes())
	if got := r.Count(); got != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, err %v; want 3, nil", got, r.Err())
	}
}

func TestEmptyFields(t *testing.T) {
	w := NewWriter(0)
	w.Bytes32(nil)
	w.Str("")
	r := NewReader(w.Bytes())
	if got := r.Bytes32(); len(got) != 0 {
		t.Errorf("empty Bytes32 = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(16)
	w.Uint64(99)
	if w.Len() != 8 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	w.Uint8(5)
	r := NewReader(w.Bytes())
	if r.Uint8() != 5 || r.Done() != nil {
		t.Fatal("writer unusable after Reset")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b []byte, s string, flag bool) bool {
		if len(s) > MaxString {
			s = s[:MaxString]
		}
		w := NewWriter(0)
		w.Uint64(a)
		w.Bytes32(b)
		w.Str(s)
		w.Bool(flag)
		r := NewReader(w.Bytes())
		ga := r.Uint64()
		gb := r.Bytes32()
		gs := r.Str()
		gf := r.Bool()
		if r.Done() != nil {
			return false
		}
		return ga == a && bytes.Equal(gb, b) && gs == s && gf == flag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFuzzlikeRandomInputNoPanic(t *testing.T) {
	// Decoding arbitrary bytes must never panic, only error.
	f := func(b []byte) bool {
		r := NewReader(b)
		r.Uint32()
		r.Str()
		r.Bytes32()
		r.OID()
		r.Count()
		r.Float64()
		_ = r.Done()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncatesAtLimitBoundary(t *testing.T) {
	// A string of exactly MaxString must round-trip.
	s := string(make([]byte, 65535))
	w := NewWriter(0)
	w.Str(s)
	r := NewReader(w.Bytes())
	if got := r.Str(); got != s {
		t.Fatal("max-length string did not round-trip")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterStrOverflowSurfacesError(t *testing.T) {
	// A string whose length cannot fit the 16-bit prefix used to wrap
	// silently and corrupt every following field; it must now record an
	// error, go inert, and yield no bytes.
	long := string(make([]byte, 70000))
	w := NewWriter(0)
	w.Uint8(7)
	w.Str(long)
	w.Uint32(42) // must be a no-op after the failure
	if err := w.Err(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Err() = %v, want ErrTooLarge", err)
	}
	if b := w.Bytes(); b != nil {
		t.Fatalf("failed writer leaked %d bytes", len(b))
	}
	if w.Len() != 1 {
		t.Fatalf("writer kept appending after error: len %d", w.Len())
	}
}

func TestWriterStrUint16Boundary(t *testing.T) {
	// 65535 is the largest length the prefix can represent; 65536 (which
	// is still <= MaxString) would wrap to 0 and must be refused.
	w := NewWriter(0)
	w.Str(string(make([]byte, 65536)))
	if !errors.Is(w.Err(), ErrTooLarge) {
		t.Fatalf("Err() = %v, want ErrTooLarge for prefix-wrapping string", w.Err())
	}
}

func TestWriterBytes32AndCountLimits(t *testing.T) {
	w := NewWriter(0)
	w.Count(MaxCount + 1)
	if !errors.Is(w.Err(), ErrTooLarge) {
		t.Fatalf("Count over limit: Err() = %v", w.Err())
	}
	w2 := NewWriter(0)
	w2.Count(-1)
	if !errors.Is(w2.Err(), ErrTooLarge) {
		t.Fatalf("negative Count: Err() = %v", w2.Err())
	}
}

func TestPooledWriterRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		w := GetWriter(64)
		w.Uint16(uint16(i))
		w.Str("pooled")
		w.Bytes32([]byte{byte(i)})
		r := NewReader(w.Bytes())
		if r.Uint16() != uint16(i) || r.Str() != "pooled" || !bytes.Equal(r.Bytes32(), []byte{byte(i)}) {
			t.Fatalf("iteration %d: pooled writer corrupted message", i)
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		w.Free()
	}
}

func TestPooledWriterClearsErrorOnReuse(t *testing.T) {
	w := GetWriter(8)
	w.Str(string(make([]byte, 70000)))
	if w.Err() == nil {
		t.Fatal("expected error")
	}
	w.Free()
	w2 := GetWriter(8)
	defer w2.Free()
	if w2.Err() != nil || w2.Len() != 0 {
		t.Fatal("pooled writer carried error or bytes across Free")
	}
}
