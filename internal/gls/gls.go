// Package gls implements the Globe Location Service: the worldwide
// mapping from location-independent object identifiers to the contact
// addresses of a distributed shared object's replicas (paper §3.5).
//
// The Internet is organized into a hierarchy of domains — leaf domains
// for campus-sized networks, combined recursively up to a root domain
// covering everything. Each domain has a directory node. A directory
// node stores, per object, either actual contact addresses or forwarding
// pointers to child nodes whose subtrees contain addresses. Lookups
// start at the client's leaf node, climb toward the root until an entry
// is found, then descend along forwarding pointers; the cost of a lookup
// is therefore proportional to the distance between the client and the
// nearest replica. Higher-level nodes are kept from becoming bottlenecks
// by partitioning them into subnodes, each responsible for a slice of
// the object-identifier space selected by hashing (ids.OID.Subnode).
//
// Directory nodes are RPC servers; every hop is a real message over the
// transport, so experiments measure genuine message counts and (on the
// simulated network) virtual wide-area cost.
package gls

import (
	"errors"
	"fmt"
	"strings"

	"gdn/internal/ids"
	"gdn/internal/wire"
)

// ErrNotFound is returned by lookups for objects with no registered
// contact address anywhere in the tree.
var ErrNotFound = errors.New("gls: object not found")

// ErrNoAddrs is returned when constructing a reference to a directory
// node with no subnode addresses.
var ErrNoAddrs = errors.New("gls: directory node reference has no addresses")

// ErrUnknownSession is returned by session-scoped operations naming a
// session the directory node does not hold — the node restarted without
// its state, or the session aged out. The owner reacts by reopening
// the session and re-attaching its registrations.
var ErrUnknownSession = errors.New("gls: unknown registration session")

// IsUnknownSession recognizes ErrUnknownSession across an RPC boundary,
// where remote errors arrive flattened to text.
func IsUnknownSession(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrUnknownSession) || strings.Contains(err.Error(), ErrUnknownSession.Error())
}

// Operation codes of the directory-node protocol.
const (
	// OpLookup is the up-phase lookup sent by resolvers and child nodes.
	OpLookup uint16 = iota + 1
	// OpLookupDown descends a tree of forwarding pointers.
	OpLookupDown
	// OpInsert attaches a contact address to the registration session
	// the request names; a nil or unknown session is refused. A nil OID
	// asks the service to allocate a fresh identifier (paper §6.1: "an
	// object identifier is allocated for the DSO by the GLS").
	OpInsert
	// OpDelete deregisters one contact address.
	OpDelete
	// OpInstallPtr installs a forwarding pointer; sent by a child node to
	// its parent while an insert propagates toward the root.
	OpInstallPtr
	// OpRemovePtr removes a forwarding pointer; sent by a child node to
	// its parent when its last entry for an object disappears.
	OpRemovePtr
	_ // retired: an operation-counters query; later codes keep their values
	// OpSessionOpen opens (or refreshes) a registration session: one
	// lease covering every contact address a server attaches through it.
	// The body carries the session identifier (allocated by the server),
	// the server's transport address, and the TTL in whole seconds.
	OpSessionOpen
	// OpSessionRenew renews a session's lease in one round trip — the
	// batched heartbeat that keeps renewal traffic O(servers) rather
	// than O(replicas). The body carries the session identifier, the TTL
	// in whole seconds and the owner's drain bit. The response reports
	// whether the node knows the session and the digest of the entries
	// riding it there (see entryHash); an unknown session or a digest
	// that differs from the owner's books is repaired with a replacing
	// OpSessionReattach.
	OpSessionRenew
	// OpSessionClose ends a session; every entry attached to it expires
	// immediately. The orderly-shutdown counterpart of letting the
	// session age out.
	OpSessionClose
	// OpSessionReattach reopens a session and attaches a batch of
	// entries in one round trip. The body carries the session open
	// fields (identifier, address, TTL), the drain bit, a mode byte and
	// the entries: a count, then (oid, contact address) pairs. In
	// reattachReplace mode — the renewal's repair — the listed entries
	// become all that ride the session at this subnode; in reattachAdd
	// mode — AttachBatch, the bulk path — they are added to it.
	OpSessionReattach
)

// Modes of OpSessionReattach.
const (
	reattachAdd uint8 = iota
	reattachReplace
)

// entryHash is the 64-bit FNV-1a hash of one (object, contact address)
// pair, each string preceded by its length. A session's digest at a
// subnode is the sum mod 2⁶⁴ of entryHash over the entries riding it
// there: independent of order, kept in step in O(1) per attach and
// detach on both the node and the owner, and exact enough that any
// difference between the two — a lost, stale or swapped entry — shows
// on the next renewal. It does not allocate.
func entryHash(oid ids.OID, ca ContactAddress) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range oid {
		h = (h ^ uint64(b)) * prime
	}
	for _, f := range [...]string{ca.Protocol, ca.Address, ca.Impl, ca.Role} {
		h = (h ^ uint64(len(f))) * prime
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * prime
		}
	}
	return h
}

// ContactAddress describes where one local representative of an object
// lives and how to talk to it (paper §3.4): the replication protocol it
// speaks, its transport address, the implementation to load into a
// client address space, and the representative's role in the protocol.
type ContactAddress struct {
	// Protocol names the replication protocol, e.g. "masterslave".
	Protocol string
	// Address is the transport address of the representative's
	// communication endpoint, e.g. "eu-nl-vu:gos/obj".
	Address string
	// Impl identifies the local-representative implementation a binding
	// client must load from its implementation registry (the paper's
	// remote-class-loading step, §3.4).
	Impl string
	// Role is the representative's protocol role: "server", "master",
	// "slave", "peer" or "" when the protocol has a single role.
	Role string
}

func (ca ContactAddress) String() string {
	if ca.Role == "" {
		return fmt.Sprintf("%s@%s", ca.Protocol, ca.Address)
	}
	return fmt.Sprintf("%s/%s@%s", ca.Protocol, ca.Role, ca.Address)
}

func (ca ContactAddress) encode(w *wire.Writer) {
	w.Str(ca.Protocol)
	w.Str(ca.Address)
	w.Str(ca.Impl)
	w.Str(ca.Role)
}

func decodeContactAddress(r *wire.Reader) ContactAddress {
	return ContactAddress{
		Protocol: r.Str(),
		Address:  r.Str(),
		Impl:     r.Str(),
		Role:     r.Str(),
	}
}

// EncodeAddrs serializes a contact-address set; it is used in lookup
// responses and in object-server checkpoints.
func EncodeAddrs(addrs []ContactAddress) []byte {
	w := wire.NewWriter(16 + 64*len(addrs))
	w.Count(len(addrs))
	for _, ca := range addrs {
		ca.encode(w)
	}
	return w.Bytes()
}

// DecodeAddrs reverses EncodeAddrs.
func DecodeAddrs(b []byte) ([]ContactAddress, error) {
	r := wire.NewReader(b)
	addrs := decodeAddrList(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return addrs, nil
}

// EncodeLookupResult serializes a lookup response: the healthy contact
// addresses plus, separately, addresses that are alive but draining.
// Keeping the two apart lets every node on the search path keep
// looking for healthy replicas elsewhere in the tree when a subtree
// answers with drained ones only — a draining replica must not shadow
// a healthy sibling — while still flowing the drained set upward as
// the last resort the client gets when nothing healthy exists.
func EncodeLookupResult(healthy, drained []ContactAddress) []byte {
	h := EncodeAddrs(healthy)
	d := EncodeAddrs(drained)
	w := wire.NewWriter(16 + len(h) + len(d))
	w.Bytes32(h)
	w.Bytes32(d)
	return w.Bytes()
}

// DecodeLookupResult reverses EncodeLookupResult.
func DecodeLookupResult(b []byte) (healthy, drained []ContactAddress, err error) {
	r := wire.NewReader(b)
	hb := r.Bytes32()
	db := r.Bytes32()
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	if healthy, err = DecodeAddrs(hb); err != nil {
		return nil, nil, err
	}
	if drained, err = DecodeAddrs(db); err != nil {
		return nil, nil, err
	}
	return healthy, drained, nil
}

func decodeAddrList(r *wire.Reader) []ContactAddress {
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	addrs := make([]ContactAddress, 0, n)
	for i := 0; i < n; i++ {
		addrs = append(addrs, decodeContactAddress(r))
	}
	return addrs
}

// Ref identifies one directory node: the addresses of its subnodes.
// An unpartitioned node has exactly one address. Requests for an object
// must be routed to the subnode selected by the object's identifier so
// all parties agree on which subnode owns which slice of the space.
type Ref struct {
	Addrs []string
}

// IsZero reports whether the reference names no node (e.g. the parent
// reference of the root).
func (r Ref) IsZero() bool { return len(r.Addrs) == 0 }

// Route returns the subnode address responsible for oid.
func (r Ref) Route(oid ids.OID) string {
	return r.Addrs[oid.Subnode(len(r.Addrs))]
}

func (r Ref) encode(w *wire.Writer) {
	w.Count(len(r.Addrs))
	for _, a := range r.Addrs {
		w.Str(a)
	}
}

func decodeRef(r *wire.Reader) Ref {
	n := r.Count()
	if r.Err() != nil {
		return Ref{}
	}
	ref := Ref{Addrs: make([]string, 0, n)}
	for i := 0; i < n; i++ {
		ref.Addrs = append(ref.Addrs, r.Str())
	}
	return ref
}

// Counters is a snapshot of the operations one subnode has handled. The
// partitioning experiment (§3.5) reads these to show load spreading
// across subnodes.
type Counters struct {
	Lookups       int64 // up-phase lookups handled
	Descends      int64 // down-phase lookups handled
	Inserts       int64 // entries attached (one per OpInsert or reattached entry)
	Deletes       int64 // deregistrations
	PtrOps        int64 // forwarding-pointer installs and removals
	Expiries      int64 // leased contact addresses aged out
	Drains        int64 // drain-state changes applied
	SessionOpens  int64 // registration sessions opened (or reopened)
	SessionRenews int64 // batched session renewals handled
	SessionCloses int64 // orderly session closes handled
}

// Total sums all operation classes.
func (c Counters) Total() int64 {
	return c.Lookups + c.Descends + c.Inserts + c.Deletes + c.PtrOps + c.Drains +
		c.SessionOpens + c.SessionRenews + c.SessionCloses
}
