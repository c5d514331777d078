package dns

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// This file implements the RFC 1035 §4 wire format: the 12-byte header,
// label-sequence names with 0xC0 compression pointers, and the four
// record sections. RDATA is encoded per type — a (possibly compressed)
// name for NS/CNAME, and length-prefixed text for TXT, ADDR and TSIG.

// Header flag bits within the second 16-bit word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// maxMessage bounds an encoded or decoded message. Real DNS-over-UDP is
// 512 bytes with truncation; this system's frames are larger so batched
// updates fit, but the bound still rejects hostile blobs.
const maxMessage = 1 << 20

// Encode serializes the message with name compression.
func Encode(m *Message) ([]byte, error) {
	e := &encoder{buf: make([]byte, 0, 512), offsets: make(map[string]int)}

	flags := uint16(m.Opcode&0xF) << 11
	if m.Response {
		flags |= flagQR
	}
	if m.Authoritative {
		flags |= flagAA
	}
	if m.RecursionDesired {
		flags |= flagRD
	}
	if m.RecursionAvailable {
		flags |= flagRA
	}
	// The low four RCODE bits live where RFC 1035 puts them; bits 4-6
	// ride in the Z bits, standing in for the EDNS0 extended-RCODE
	// mechanism so BADSIG (16) survives the wire.
	flags |= uint16(m.RCode) & 0x7F

	e.u16(m.ID)
	e.u16(flags)
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(len(m.Answers)))
	e.u16(uint16(len(m.Authority)))
	e.u16(uint16(len(m.Additional)))

	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if err := e.rr(rr); err != nil {
				return nil, err
			}
		}
	}
	if len(e.buf) > maxMessage {
		return nil, fmt.Errorf("%w: message exceeds %d bytes", ErrBadMessage, maxMessage)
	}
	return e.buf, nil
}

type encoder struct {
	buf     []byte
	offsets map[string]int // canonical name -> offset of its encoding
}

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// name emits a label sequence, compressing any suffix already present
// in the message with a pointer (RFC 1035 §4.1.4).
func (e *encoder) name(s string) error {
	if !ValidName(s) {
		return fmt.Errorf("%w: %q", ErrBadName, s)
	}
	for s != "" {
		if off, ok := e.offsets[s]; ok && off < 0x3FFF {
			e.u16(0xC000 | uint16(off))
			return nil
		}
		if len(e.buf) < 0x3FFF {
			e.offsets[s] = len(e.buf)
		}
		label := s
		if i := strings.IndexByte(s, '.'); i >= 0 {
			label, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0) // root label terminates
	return nil
}

func (e *encoder) rr(rr RR) error {
	if err := e.name(rr.Name); err != nil {
		return err
	}
	e.u16(uint16(rr.Type))
	e.u16(uint16(rr.Class))
	e.u32(rr.TTL)

	// Reserve RDLENGTH, then fill after encoding RDATA.
	lenAt := len(e.buf)
	e.u16(0)
	start := len(e.buf)
	switch rr.Type {
	case TypeNS, TypeCNAME:
		if err := e.name(rr.Data); err != nil {
			return err
		}
	default:
		// TXT, ADDR, SOA (presentation string), TSIG: opaque text with a
		// 16-bit length so RDATA over 255 bytes (batched TSIG MACs,
		// encoded OIDs) survives.
		if len(rr.Data) > 0xFFFF {
			return fmt.Errorf("%w: rdata too long", ErrBadMessage)
		}
		e.u16(uint16(len(rr.Data)))
		e.buf = append(e.buf, rr.Data...)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(len(e.buf)-start))
	return nil
}

// Decode parses a wire-format message.
func Decode(b []byte) (*Message, error) {
	if len(b) > maxMessage {
		return nil, fmt.Errorf("%w: message exceeds %d bytes", ErrBadMessage, maxMessage)
	}
	d := &decoder{buf: b}
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
		return nil, fmt.Errorf("%w: absurd record counts", ErrBadMessage)
	}

	if qd > 0 {
		m.Questions = make([]Question, 0, min(qd, d.fit(minQuestion)))
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
		if counts[i] > 0 {
			*sec = make([]RR, 0, min(counts[i], d.fit(minRR)))
		}
		for j := 0; j < counts[i]; j++ {
			rr := d.rr()
			if d.err != nil {
				return nil, d.err
			}
			*sec = append(*sec, rr)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

// The smallest encodings of a question and a record: a one-byte name
// (the root) and the fixed fields.
const (
	minQuestion = 1 + 4
	minRR       = 1 + 10
)

// fit is how many items of at least size bytes the rest of the message
// can hold, so a section's preallocation is bounded by the input
// length rather than by its claimed count.
func (d *decoder) fit(size int) int { return (len(d.buf) - d.off) / size }

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadMessage}, args...)...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated at offset %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// name reads a possibly compressed label sequence starting at the
// current offset, leaving the offset just past its in-stream encoding.
func (d *decoder) name() string {
	s, next := d.nameAt(d.off)
	if d.err != nil {
		return ""
	}
	d.off = next
	return s
}

// maxPointers bounds a name's chain of compression pointers. Pointers
// must point backwards, so a chain cannot loop; the bound caps how far
// two bytes of input can expand into one name.
const maxPointers = 16

// nameAt decodes the name at off into one buffer, lowercased, and
// returns it with the offset following the name's in-stream bytes.
// Compression pointers only move the cursor, and the whole name —
// every label it reaches through them, with its length octet, and the
// root's zero octet — is bounded by maxNameLen (RFC 1035 §2.3.4), the
// bound ValidName puts on what Encode emits. ASCII is lowercased in
// place; a name with any byte above ASCII is lowercased as a whole by
// strings.ToLower, which gives the same string as lowercasing each label
// apart, since '.' never falls inside a UTF-8 sequence. Lowercasing can
// lengthen a non-ASCII name, so the bound is checked again after it.
func (d *decoder) nameAt(off int) (string, int) {
	var stack [maxNameLen]byte
	buf := stack[:0]
	next := -1              // the offset after the in-stream bytes, once known
	total, pointers := 1, 0 // the root's zero octet
	high := false
	for {
		if off >= len(d.buf) {
			d.fail("name runs past message end")
			return "", off
		}
		c := d.buf[off]
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			if !high {
				return string(buf), next
			}
			s := strings.ToLower(string(buf))
			if len(s)+2 > maxNameLen {
				d.fail("name exceeds %d bytes once lowercased", maxNameLen)
				return "", off
			}
			return s, next
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
			if pointers++; pointers > maxPointers {
				d.fail("compression pointer loop")
				return "", off
			}
			if next < 0 {
				next = off + 2
			}
			off = ptr
		case c&0xC0 != 0:
			d.fail("reserved label type %#x", c)
			return "", off
		default:
			n := int(c)
			if off+1+n > len(d.buf) {
				d.fail("label runs past message end")
				return "", off
			}
			total += n + 1
			if total > maxNameLen {
				d.fail("name exceeds %d bytes", maxNameLen)
				return "", off
			}
			if len(buf) > 0 {
				buf = append(buf, '.')
			}
			for _, b := range d.buf[off+1 : off+1+n] {
				if 'A' <= b && b <= 'Z' {
					b += 'a' - 'A'
				}
				high = high || b >= 0x80
				buf = append(buf, b)
			}
			off += 1 + n
		}
	}
}

func (d *decoder) rr() RR {
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
