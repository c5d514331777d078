package dns

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, as any server or resolver
// receives them (§6.1). Decoding must not panic; it must allocate no
// more than a constant per input byte plus the names it returns; it
// must agree, message for message and error for error, with refDecode,
// the label-join decoder it replaced; no decoded name may exceed the
// RFC 1035 bound, counted across compression pointers; and a decoded
// message that encodes must decode back to itself. The committed
// corpus (testdata/fuzz/FuzzDecode) holds a TSIG-signed update, a
// referral with glue and compression pointers, a pointer loop, a
// forward pointer, mixed-case and non-ASCII labels, and a name whose
// labels fit the bound on each side of a pointer but not together.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		// The smaller of two readings, so that a stray allocation on
		// another goroutine does not count against the decoder.
		if got, limit := min(decodeBytes(data), decodeBytes(data)), 64*uint64(len(data))+4*nameBytes(m)+4096; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}

		ref, refErr := refDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, label-join decoder error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(m, ref) {
			t.Fatalf("Decode differs from the label-join decoder:\n got %+v\nwant %+v", m, ref)
		}

		eachName(m, func(s string) {
			if len(s)+2 > maxNameLen {
				t.Fatalf("decoded a name of %d wire bytes", len(s)+2)
			}
		})
		b, err := Encode(m)
		if err != nil {
			return // a name that decodes need not encode: a '.' inside a label makes an empty one
		}
		again, err := Decode(b)
		if err != nil {
			t.Fatalf("decode of the re-encoded message: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("decode, encode, decode is not a fixed point:\n got %+v\nwant %+v", again, m)
		}
	})
}

// decodeBytes is the heap Decode allocates for data.
func decodeBytes(data []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Decode(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// eachName calls fn with every name in m, which may be nil.
func eachName(m *Message, fn func(string)) {
	if m == nil {
		return
	}
	for _, q := range m.Questions {
		fn(q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			fn(rr.Name)
			if rr.Type == TypeNS || rr.Type == TypeCNAME {
				fn(rr.Data)
			}
		}
	}
}

// nameBytes is the length of every name in m, which may be nil.
func nameBytes(m *Message) uint64 {
	var n int
	eachName(m, func(s string) { n += len(s) })
	return uint64(n)
}

// refDecode is the decoder as it was before names were decoded into one
// buffer: a slice of lowercased labels per pointer level, joined. It
// stays here as the reference FuzzDecode compares Decode against.
func refDecode(b []byte) (*Message, error) {
	if len(b) > maxMessage {
		return nil, ErrBadMessage
	}
	d := &refDecoder{decoder{buf: b}}
	m := &Message{}

	id := d.u16()
	flags := d.u16()
	qd := int(d.u16())
	an := int(d.u16())
	ns := int(d.u16())
	ar := int(d.u16())
	if d.err != nil {
		return nil, d.err
	}
	m.ID = id
	m.Response = flags&flagQR != 0
	m.Opcode = Opcode(flags >> 11 & 0xF)
	m.Authoritative = flags&flagAA != 0
	m.RecursionDesired = flags&flagRD != 0
	m.RecursionAvailable = flags&flagRA != 0
	m.RCode = RCode(flags & 0x7F)

	const maxRecords = 64 << 10
	if qd > maxRecords || an > maxRecords || ns > maxRecords || ar > maxRecords {
		return nil, ErrBadMessage
	}
	for i := 0; i < qd; i++ {
		q := Question{Name: d.name(), Type: Type(d.u16()), Class: Class(d.u16())}
		if d.err != nil {
			return nil, d.err
		}
		m.Questions = append(m.Questions, q)
	}
	counts := [3]int{an, ns, ar}
	sections := [3]*[]RR{&m.Answers, &m.Authority, &m.Additional}
	for i, sec := range sections {
		for j := 0; j < counts[i]; j++ {
			rr := d.rr()
			if d.err != nil {
				return nil, d.err
			}
			*sec = append(*sec, rr)
		}
	}
	return m, nil
}

type refDecoder struct{ decoder }

func (d *refDecoder) name() string {
	total := 1 // the root's zero octet
	s, next := d.nameAt(d.off, 0, &total)
	if d.err == nil && len(s)+2 > maxNameLen {
		d.fail("name exceeds %d bytes once lowercased", maxNameLen)
	}
	if d.err != nil {
		return ""
	}
	d.off = next
	return s
}

// nameAt decodes the labels at off and, through pointers, below it;
// total counts the bytes of the whole name, so a name is bounded by
// maxNameLen across its pointers, as Decode bounds it.
func (d *refDecoder) nameAt(off, depth int, total *int) (string, int) {
	if depth > 16 {
		d.fail("compression pointer loop")
		return "", off
	}
	var labels []string
	for {
		if off >= len(d.buf) {
			d.fail("name runs past message end")
			return "", off
		}
		c := d.buf[off]
		switch {
		case c == 0:
			return strings.Join(labels, "."), off + 1
		case c&0xC0 == 0xC0:
			if off+1 >= len(d.buf) {
				d.fail("truncated compression pointer")
				return "", off
			}
			ptr := int(binary.BigEndian.Uint16(d.buf[off:]) & 0x3FFF)
			if ptr >= off {
				d.fail("forward compression pointer")
				return "", off
			}
			rest, _ := d.nameAt(ptr, depth+1, total)
			if d.err != nil {
				return "", off
			}
			if rest != "" {
				labels = append(labels, rest)
			}
			return strings.Join(labels, "."), off + 2
		case c&0xC0 != 0:
			d.fail("reserved label type %#x", c)
			return "", off
		default:
			n := int(c)
			if off+1+n > len(d.buf) {
				d.fail("label runs past message end")
				return "", off
			}
			*total += n + 1
			if *total > maxNameLen {
				d.fail("name exceeds %d bytes", maxNameLen)
				return "", off
			}
			labels = append(labels, strings.ToLower(string(d.buf[off+1:off+1+n])))
			off += 1 + n
		}
	}
}

func (d *refDecoder) rr() RR {
	rr := RR{Name: d.name()}
	rr.Type = Type(d.u16())
	rr.Class = Class(d.u16())
	rr.TTL = d.u32()
	rdlen := int(d.u16())
	if d.err != nil {
		return RR{}
	}
	if d.off+rdlen > len(d.buf) {
		d.fail("rdata runs past message end")
		return RR{}
	}
	end := d.off + rdlen
	switch rr.Type {
	case TypeNS, TypeCNAME:
		rr.Data = d.name()
		if d.off != end {
			d.fail("rdata length mismatch for %s", rr.Type)
		}
	default:
		n := int(d.u16())
		text := d.take(n)
		if d.err == nil && d.off != end {
			d.fail("rdata length mismatch for %s", rr.Type)
		}
		rr.Data = string(text)
	}
	return rr
}
