// Package wire implements the binary encoding used by all Globe protocol
// messages: invocation messages exchanged between local representatives,
// location-service requests, object-server commands and marshalled
// semantics state.
//
// The paper's replication and communication subobjects operate only on
// opaque messages "in which method identifiers and parameters have been
// encoded" (§3.3); this package is that encoding. It is deliberately
// simple — length-prefixed fields, big-endian fixed-width integers — so
// messages are deterministic, self-delimiting and cheap to parse.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"gdn/internal/ids"
)

// Encoding limits. Oversized fields are rejected during decode so a
// malformed or hostile message cannot make a server allocate unbounded
// memory (paper §6.1: servers must survive bogus protocol messages).
const (
	// MaxBytes is the largest single byte-string field. It bounds one
	// file chunk plus headroom for framing.
	MaxBytes = 16 << 20
	// MaxString is the largest string field (names, paths, addresses).
	MaxString = 64 << 10
	// MaxCount is the largest element count for encoded lists.
	MaxCount = 1 << 20
)

// ErrTruncated is returned when a message ends before a field completes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is returned when a length prefix exceeds the field limit.
var ErrTooLarge = errors.New("wire: field exceeds size limit")

// Writer builds a message by appending fields. The zero value is ready
// to use. Writers are not safe for concurrent use.
//
// Fields that would not survive the round trip — a string longer than
// MaxString whose 16-bit length prefix would wrap, a byte string over
// MaxBytes, a count over MaxCount — record an error instead of encoding
// corrupt data. Like Reader, the writer goes inert after the first
// error: subsequent appends are no-ops, Err returns the error, and
// Bytes returns nil so a failed encode cannot be sent by accident.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// writerPool recycles encode buffers across messages. The RPC layer
// encodes every request and response through it, so steady-state
// traffic allocates no per-message buffers.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// maxPooledWriter bounds the buffer capacity a pooled writer retains.
// It is sized to keep one canonical 256 KiB content chunk plus framing
// recyclable — upload frames and chunk-batch requests are steady-state
// traffic on the bulk path — while occasional giant messages
// (multi-megabyte chunk-batch responses) still drop their buffers
// rather than pin them in the pool forever.
const maxPooledWriter = 288 << 10

// GetWriter returns a pooled writer with capacity preallocated for at
// least n bytes. Call Free when the encoded bytes have been fully
// consumed (sent or copied); the returned slice from Bytes must not be
// retained past Free.
func GetWriter(n int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < n {
		w.buf = make([]byte, 0, n)
	}
	return w
}

// Free resets the writer and returns it to the package pool. The caller
// must not use the writer, or any slice obtained from Bytes, afterwards.
func (w *Writer) Free() {
	if cap(w.buf) > maxPooledWriter {
		w.buf = nil
	}
	w.Reset()
	writerPool.Put(w)
}

// Bytes returns the encoded message, or nil if an append failed. The
// slice aliases the writer's buffer; the caller must not keep writing
// afterwards.
func (w *Writer) Bytes() []byte {
	if w.err != nil {
		return nil
	}
	return w.buf
}

// Err returns the first encoding error, or nil.
func (w *Writer) Err() error { return w.err }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the contents and any recorded error, retaining the
// buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.err = nil
}

func (w *Writer) wfail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// Uint16 appends a big-endian 16-bit integer.
func (w *Writer) Uint16(v uint16) {
	if w.err != nil {
		return
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a big-endian 32-bit integer.
func (w *Writer) Uint32(v uint32) {
	if w.err != nil {
		return
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a big-endian 64-bit integer.
func (w *Writer) Uint64(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Int64 appends a 64-bit integer in two's complement.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Bytes32 appends a byte string with a 32-bit length prefix. Slices
// over MaxBytes record ErrTooLarge — the peer's Reader would refuse
// them anyway.
func (w *Writer) Bytes32(b []byte) {
	if w.err != nil {
		return
	}
	if len(b) > MaxBytes {
		w.wfail(fmt.Errorf("%w: %d-byte field", ErrTooLarge, len(b)))
		return
	}
	w.Uint32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Bytes32Prefix appends only the 32-bit length prefix of an n-byte
// string whose bytes will travel out of band. The zero-copy send path
// uses it: a frame header ends with the prefix, and the transport
// concatenates the chunk body after it without the body ever being
// appended to (copied into) the writer. The result decodes exactly as
// if Bytes32 had been called on the body.
func (w *Writer) Bytes32Prefix(n int) {
	if w.err != nil {
		return
	}
	if n < 0 || n > MaxBytes {
		w.wfail(fmt.Errorf("%w: %d-byte field", ErrTooLarge, n))
		return
	}
	w.Uint32(uint32(n))
}

// Str appends a string with a 16-bit length prefix. Strings over
// MaxString record ErrTooLarge: encoding one would silently wrap the
// length prefix and corrupt every field after it.
func (w *Writer) Str(s string) {
	if w.err != nil {
		return
	}
	if len(s) > MaxString || len(s) > math.MaxUint16 {
		w.wfail(fmt.Errorf("%w: %d-byte string", ErrTooLarge, len(s)))
		return
	}
	w.Uint16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Hash appends a fixed 32-byte digest (a chunk ref or SHA-256) with
// no length prefix.
func (w *Writer) Hash(h [32]byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, h[:]...)
}

// OID appends an object identifier.
func (w *Writer) OID(o ids.OID) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, o[:]...)
}

// Count appends a list length prefix, bounded by MaxCount to mirror the
// Reader.
func (w *Writer) Count(n int) {
	if w.err != nil {
		return
	}
	if n < 0 || n > MaxCount {
		w.wfail(fmt.Errorf("%w: count %d", ErrTooLarge, n))
		return
	}
	w.Uint32(uint32(n))
}

// Reader decodes a message built by Writer. Decoding methods record the
// first error and return zero values afterwards, so call sequences can
// run unconditionally and check Err once at the end — the idiomatic
// pattern for parsing untrusted protocol input without panics.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over the encoded message b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the message decoded cleanly and completely, and an
// error if decoding failed or trailing bytes remain.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 decodes a single byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint16 decodes a big-endian 16-bit integer.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 decodes a big-endian 32-bit integer.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 decodes a big-endian 64-bit integer.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 decodes a 64-bit two's complement integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 decodes an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool decodes a boolean byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Bytes32 decodes a 32-bit length-prefixed byte string. The returned
// slice aliases the message buffer.
func (r *Reader) Bytes32() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if n > MaxBytes {
		r.fail(ErrTooLarge)
		return nil
	}
	return r.take(int(n))
}

// Str decodes a 16-bit length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uint16()
	if r.err != nil {
		return ""
	}
	if int(n) > MaxString {
		r.fail(ErrTooLarge)
		return ""
	}
	return string(r.take(int(n)))
}

// Hash decodes a fixed 32-byte digest.
func (r *Reader) Hash() [32]byte {
	var h [32]byte
	copy(h[:], r.take(len(h)))
	return h
}

// OID decodes an object identifier.
func (r *Reader) OID() ids.OID {
	b := r.take(ids.Size)
	if b == nil {
		return ids.Nil
	}
	var o ids.OID
	copy(o[:], b)
	return o
}

// Count decodes a list length prefix, bounded by MaxCount and by the
// undecoded bytes: every encoded element takes at least one byte, so a
// count the rest of the message cannot hold is a truncated message.
// Callers may therefore preallocate from the count — a forged one
// cannot make a decoder allocate beyond a multiple of its input.
func (r *Reader) Count() int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > MaxCount {
		r.fail(ErrTooLarge)
		return 0
	}
	if int(n) > r.Remaining() {
		r.fail(ErrTruncated)
		return 0
	}
	return int(n)
}
