package transport

import "sync"

// Frame buffer pool: receive paths allocate one buffer per inbound
// frame, and on busy connections (pipelined RPC, streamed bulk
// transfer) those buffers dominate allocation. Consumers that fully
// own a received frame hand it back with PutFrame once they are done;
// frames whose bytes escape to callers (a unary RPC response body)
// are simply never returned, which is safe — the pool does not
// require balance.
//
// Buffers are size-classed by capacity. A returned buffer may be a
// sub-slice of its original allocation (a security channel strips its
// record header in place), so classification uses the capacity that
// is actually left, rounding down to the class it still satisfies.

// The 288 KiB class exists for stream data frames: a canonical
// 256 KiB chunk plus the stream frame header must not round up to the
// 1 MiB class, or every bulk-transfer frame would pin (and, worse,
// first zero) four times the memory it uses.
var frameClasses = [...]int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 288 << 10, 1 << 20}

var framePools [len(frameClasses)]sync.Pool

// frameSlack tolerates in-place prefix stripping by layered transports
// (a security channel hands out a record's payload without its 8-byte
// sequence header): a buffer within frameSlack below a class still
// pools in that class.
// Without the tolerance a stripped frame rounds down a whole class and
// is then rejected as grossly oversized, so the receive path of every
// layered connection would leak its buffers out of the pool and every
// frame would be a fresh (zeroed) allocation.
const frameSlack = 512

// classFor returns the smallest class index whose buffers hold n
// bytes, or -1 when n exceeds every class.
func classFor(n int) int {
	for i, c := range frameClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetFrame returns a buffer of length n, drawn from the pool when a
// class fits.
func GetFrame(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if v := framePools[ci].Get(); v != nil {
		if b := v.([]byte); cap(b) >= n {
			return b[:n]
		}
		// A slack-admitted entry a few bytes under the ask (possible
		// only when n is within frameSlack of the class size); drop it
		// and allocate full-size.
	}
	return make([]byte, n, frameClasses[ci])
}

// PutFrame recycles a frame buffer obtained from GetFrame (or any
// buffer the caller exclusively owns). The caller must not touch the
// slice afterwards.
func PutFrame(p []byte) {
	c := cap(p)
	if c == 0 {
		return
	}
	// Round down (modulo frameSlack): a buffer qualifies for the
	// largest class it can still serve — but a buffer grossly larger
	// than its class (an oversized one-off frame, or one past the
	// largest class) is dropped rather than pooled, so a "small" pool
	// entry never pins a multi-megabyte backing array.
	ci := -1
	for i, size := range frameClasses {
		if c >= size-frameSlack {
			ci = i
		}
	}
	if ci < 0 || c > 2*frameClasses[ci] {
		return
	}
	framePools[ci].Put(p[:0:c])
}
