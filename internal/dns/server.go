package dns

import (
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/rpc"
	"gdn/internal/transport"
)

// OpDNS is the single RPC operation of a DNS server; the body is a
// wire-format DNS message and query/update are distinguished by the
// message opcode, as a real server distinguishes them on one port.
const OpDNS uint16 = 1

// Server is an authoritative name server hosting one or more zones.
// It answers queries (with delegation referrals for child-zone cuts)
// and applies TSIG-authenticated dynamic updates.
type Server struct {
	net  transport.Network
	addr string

	mu    sync.RWMutex
	zones map[string]*Zone

	srv *rpc.Server

	// now supplies the TSIG clock; replaceable for deterministic tests.
	now func() int64

	queries atomic.Int64
	updates atomic.Int64
}

// ServeDNS starts an authoritative server on addr.
func ServeDNS(net transport.Network, addr string, logf func(string, ...any)) (*Server, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		net:   net,
		addr:  addr,
		zones: make(map[string]*Zone),
		now:   func() int64 { return time.Now().Unix() },
	}
	srv, err := rpc.Serve(net, addr, s.handle, rpc.WithServerLog(logf))
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Addr returns the server's transport address.
func (s *Server) Addr() string { return s.addr }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// AddZone makes the server authoritative for z.
func (s *Server) AddZone(z *Zone) {
	s.mu.Lock()
	s.zones[z.Name()] = z
	s.mu.Unlock()
}

// Zone returns a hosted zone by apex name.
func (s *Server) Zone(apex string) (*Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	z, ok := s.zones[CanonicalName(apex)]
	return z, ok
}

// SetClock replaces the TSIG clock; tests use it to probe the time
// window.
func (s *Server) SetClock(now func() int64) { s.now = now }

// QueriesHandled and UpdatesHandled expose load counters for the
// name-service experiments.
func (s *Server) QueriesHandled() int64 { return s.queries.Load() }

// UpdatesHandled counts dynamic update messages applied.
func (s *Server) UpdatesHandled() int64 { return s.updates.Load() }

func (s *Server) handle(call *rpc.Call) ([]byte, error) {
	msg, err := Decode(call.Body)
	if err != nil {
		// A malformed message gets a FORMERR with whatever ID parsed, or
		// a zero one; it must never take the server down (paper §6.1).
		return Encode(&Message{Response: true, RCode: RCodeFormErr})
	}
	var resp *Message
	switch msg.Opcode {
	case OpcodeQuery:
		s.queries.Add(1)
		resp = s.answerQuery(msg)
	case OpcodeUpdate:
		s.updates.Add(1)
		resp = s.applyUpdate(msg)
	default:
		resp = msg.Reply()
		resp.RCode = RCodeNotImp
	}
	return Encode(resp)
}

// answerQuery resolves one question against the hosted zones: an
// authoritative answer, a delegation referral with glue, NODATA, or
// NXDOMAIN.
func (s *Server) answerQuery(msg *Message) *Message {
	resp := msg.Reply()
	if len(msg.Questions) != 1 {
		resp.RCode = RCodeFormErr
		return resp
	}
	q := msg.Questions[0]
	name := CanonicalName(q.Name)

	s.mu.RLock()
	zone := findZone(s.zones, name)
	s.mu.RUnlock()
	if zone == nil {
		resp.RCode = RCodeRefused
		return resp
	}

	// A delegation below our apex covering the name turns the response
	// into a referral: NS records in authority, their addresses as glue.
	// Querying the cut itself for its NS records stays an answer.
	if ns := zone.delegation(name); len(ns) > 0 && !(ns[0].Name == name && q.Type == TypeNS) {
		resp.Authority = ns
		resp.Additional = s.glue(zone, ns)
		return resp
	}

	resp.Authoritative = true
	answers := zone.Lookup(name, q.Type)
	if len(answers) > 0 {
		resp.Answers = answers
		return resp
	}
	if zone.nameExists(name) {
		return resp // NODATA: name exists, no records of this type
	}
	resp.RCode = RCodeNXDomain
	return resp
}

// glue collects ADDR records for referral name servers so the resolver
// can contact them without another lookup.
func (s *Server) glue(zone *Zone, ns []RR) []RR {
	var out []RR
	for _, rr := range ns {
		out = append(out, zone.Lookup(rr.Data, TypeADDR)...)
	}
	return out
}

// applyUpdate processes an RFC 2136 dynamic update. The zone section
// names the zone; the authority section carries the updates; the
// message must be TSIG-signed by a key the zone accepts.
func (s *Server) applyUpdate(msg *Message) *Message {
	resp := msg.Reply()
	if len(msg.Questions) != 1 {
		resp.RCode = RCodeFormErr
		return resp
	}
	apex := CanonicalName(msg.Questions[0].Name)

	s.mu.RLock()
	zone := s.zones[apex]
	s.mu.RUnlock()
	if zone == nil {
		resp.RCode = RCodeNotAuth
		return resp
	}

	_, stripped, err := VerifyTSIG(msg, zone.updateKey, s.now())
	if err != nil {
		resp.RCode = RCodeBadSig
		return resp
	}
	if err := zone.Apply(stripped.Authority); err != nil {
		resp.RCode = RCodeRefused
		return resp
	}
	return resp
}

// NewUpdate builds an unsigned RFC 2136 update message for a zone.
// Append records with AddInsert, then sign with SignTSIG and send
// through a resolver or client.
func NewUpdate(zone string) *Message {
	return &Message{
		Opcode:    OpcodeUpdate,
		Questions: []Question{{Name: CanonicalName(zone), Type: TypeSOA, Class: ClassIN}},
	}
}

// AddInsert appends an add-record operation to an update message.
func AddInsert(m *Message, rr RR) {
	rr.Name = CanonicalName(rr.Name)
	rr.Class = ClassIN
	m.Authority = append(m.Authority, rr)
}
