// Package dns is a from-scratch miniature Domain Name System: the
// substrate the paper's prototype Globe Name Service is built on (§5).
// The paper runs BIND8 with dynamic updates and TSIG transaction
// signatures; this package reproduces the pieces of that stack the GNS
// exercises — the RFC 1034/1035 data model and wire format with name
// compression, authoritative servers with zones and delegation
// referrals, a caching stub resolver, RFC 2136 dynamic UPDATE, and
// TSIG-style HMAC transaction signatures (see DESIGN.md §2).
//
// One deliberate substitution: where real DNS stores IPv4 addresses in A
// records, this system stores transport addresses ("site:service"
// strings) in ADDR records, a private-use type. Everything else follows
// the RFCs' shapes, including the 12-byte header, question and resource
// record layouts, and 0xC0-prefixed compression pointers.
package dns

import (
	"errors"
	"fmt"
	"strings"
)

// Type is a resource record type code.
type Type uint16

// Record types used by the GDN. Values match RFC 1035 where the type
// exists there; ADDR is from the private-use range.
const (
	TypeNone  Type = 0
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeTSIG  Type = 250 // meta-RR carrying a transaction signature
	TypeANY   Type = 255 // query/update meta-type
	// TypeADDR carries a transport address in place of an IPv4 address;
	// it plays the role of an A record in this repository's world.
	TypeADDR Type = 65280
)

// String returns the mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeTSIG:
		return "TSIG"
	case TypeANY:
		return "ANY"
	case TypeADDR:
		return "ADDR"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a resource record class. Updates reuse classes as operation
// selectors exactly as RFC 2136 does.
type Class uint16

// Classes.
const (
	ClassIN   Class = 1   // the Internet; also "add" in updates
	ClassNone Class = 254 // "delete this exact RR" in updates
	ClassANY  Class = 255 // "delete this RRset" in updates
)

// Opcode selects the kind of transaction.
type Opcode uint8

// Opcodes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeUpdate Opcode = 5
)

// RCode is a response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1 and RFC 2136 §2.2).
const (
	RCodeOK       RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
	RCodeNotAuth  RCode = 9
	RCodeBadSig   RCode = 16
)

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeOK:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	case RCodeNotAuth:
		return "NOTAUTH"
	case RCodeBadSig:
		return "BADSIG"
	default:
		return fmt.Sprintf("RCODE%d", uint8(rc))
	}
}

// Errors reported by name handling and message parsing.
var (
	ErrBadName    = errors.New("dns: malformed domain name")
	ErrBadMessage = errors.New("dns: malformed message")
)

// maxNameLen bounds an encoded name, per RFC 1035 §2.3.4.
const maxNameLen = 255

// maxLabelLen bounds one label.
const maxLabelLen = 63

// CanonicalName lowercases a name and strips any trailing dot, the
// canonical form used throughout this package. The root is "".
func CanonicalName(s string) string {
	return strings.TrimSuffix(strings.ToLower(s), ".")
}

// ValidName reports whether s is a well-formed canonical name.
func ValidName(s string) bool {
	if s == "" {
		return true // the root
	}
	if len(s)+2 > maxNameLen { // on the wire: a length octet per label and the root's zero
		return false
	}
	for {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return len(s) > 0 && len(s) <= maxLabelLen
		}
		if i == 0 || i > maxLabelLen {
			return false
		}
		s = s[i+1:]
	}
}

// InZone reports whether name lies at or below the zone apex.
func InZone(name, zone string) bool {
	if zone == "" {
		return true
	}
	return name == zone || strings.HasSuffix(name, "."+zone)
}

// Parent returns the name with its leftmost label removed ("" for a
// single-label name or the root).
func Parent(name string) string {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return ""
	}
	return name[i+1:]
}

// Question is one query: a name, type and class.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

func (q Question) String() string {
	return fmt.Sprintf("%s %s", q.Name, q.Type)
}

// RR is one resource record. Data holds the presentation-form RDATA:
// the target name for NS and CNAME, the text for TXT, the transport
// address for ADDR.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  string
}

func (rr RR) String() string {
	return fmt.Sprintf("%s %d %s %s %q", rr.Name, rr.TTL, rr.Class, rr.Type, rr.Data)
}

func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassNone:
		return "NONE"
	case ClassANY:
		return "ANY"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// Message is a DNS message. For queries, Questions holds the question
// section. For RFC 2136 updates, Questions holds the zone section,
// Authority holds the update section, and Additional may end with a
// TSIG record.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Reply constructs a response skeleton for m: same ID and opcode,
// questions echoed, response bit set.
func (m *Message) Reply() *Message {
	return &Message{
		ID:        m.ID,
		Response:  true,
		Opcode:    m.Opcode,
		Questions: append([]Question(nil), m.Questions...),
	}
}

// TSIG returns the trailing TSIG record of the additional section and
// the message without it, or nil and m unchanged when there is none.
func (m *Message) TSIG() (*RR, *Message) {
	n := len(m.Additional)
	if n == 0 || m.Additional[n-1].Type != TypeTSIG {
		return nil, m
	}
	sig := m.Additional[n-1]
	stripped := *m
	stripped.Additional = m.Additional[:n-1]
	return &sig, &stripped
}
