package gls

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gdn/internal/ids"
	"gdn/internal/netsim"
)

// The session spec: the global state of the registration-session
// protocol — each server's books, lease, drain and close state, what
// each leaf subnode holds and the root's forwarding pointers — and how
// each step changes it, written once and without locks, RPC or
// persistence. TestSessionSpec drives real ServerSessions against a
// real tree through random steps and checks the tree against it.

// specServer is one server: its session, books, drain and close state.
type specServer struct {
	sess    *ServerSession
	addr    string
	books   map[ids.OID]bool
	drained bool
	closed  bool
}

// specLease is a server's session at one leaf subnode.
type specLease struct {
	expires time.Time
	drained bool
}

// specHeld is what one leaf subnode holds: each entry (contact address,
// object) with the server whose session it rides, and the sessions.
type specHeld struct {
	entries  map[specEntry]int
	sessions map[int]specLease
}

type specEntry struct {
	addr string
	oid  ids.OID
}

type spec struct {
	now     time.Time
	ttl     time.Duration
	servers []*specServer
	leaf    [2]specHeld
	ptr     map[ids.OID]bool // the root's pointers to the leaf
}

func (m *spec) at(oid ids.OID) *specHeld { return &m.leaf[oid.Subnode(len(m.leaf))] }

// has reports whether the subnode holds a record for oid.
func (h *specHeld) has(oid ids.OID) bool {
	for e := range h.entries {
		if e.oid == oid {
			return true
		}
	}
	return false
}

// put attaches oid to server j at its subnode; a fresh record installs
// the pointer above it.
func (m *spec) put(j int, oid ids.OID) {
	h := m.at(oid)
	m.ptr[oid] = m.ptr[oid] || !h.has(oid)
	h.entries[specEntry{m.servers[j].addr, oid}] = j
}

// drop removes the entries keep rejects from h; an emptied record tears
// down the pointer above it.
func (m *spec) drop(h *specHeld, keep func(specEntry, int) bool) {
	for e, j := range h.entries {
		if !keep(e, j) {
			delete(h.entries, e)
			m.ptr[e.oid] = m.ptr[e.oid] && h.has(e.oid)
		}
	}
}

// live reports whether server j's session at h is held and unexpired.
func (m *spec) live(h *specHeld, j int) (specLease, bool) {
	l, ok := h.sessions[j]
	return l, ok && !m.now.After(l.expires)
}

// renew is one server's renewal at both subnodes: the lease and drain
// flag are set, and the entries riding its session become its books.
func (m *spec) renew(j int) {
	s := m.servers[j]
	for i := range m.leaf {
		h := &m.leaf[i]
		h.sessions[j] = specLease{m.now.Add(m.ttl), s.drained}
		for oid := range s.books {
			if m.at(oid) == h {
				m.put(j, oid)
			}
		}
		m.drop(h, func(e specEntry, owner int) bool { return owner != j || s.books[e.oid] })
	}
}

// sweep drops every entry whose session is gone or expired, then the
// expired sessions.
func (m *spec) sweep() {
	for i := range m.leaf {
		h := &m.leaf[i]
		m.drop(h, func(_ specEntry, j int) bool { _, ok := m.live(h, j); return ok })
		maps.DeleteFunc(h.sessions, func(j int, _ specLease) bool { _, ok := m.live(h, j); return !ok })
	}
}

// restore is subnode 0 restarting from saved: its sessions restart with
// a full lease, entries of sessions it did not save are dropped, and
// the root's pointers stay as they are. That is the restart the
// protocol has: a record restored past its own teardown has no pointer
// above it, and nothing installs one while the record lives, so only
// its own leaf finds it.
func (m *spec) restore(saved specHeld) {
	h := specHeld{entries: map[specEntry]int{}, sessions: map[int]specLease{}}
	for j, l := range saved.sessions {
		h.sessions[j] = specLease{m.now.Add(m.ttl), l.drained}
	}
	for e, j := range saved.entries {
		if _, ok := h.sessions[j]; ok {
			h.entries[e] = j
		}
	}
	m.leaf[0] = h
}

// lookup is the answer a lookup of oid from outside the leaf gets: the
// healthy addresses riding live sessions, else the drained ones, else
// none (not found).
func (m *spec) lookup(oid ids.OID) []string {
	if !m.ptr[oid] {
		return nil
	}
	h := m.at(oid)
	var healthy, drained []string
	for e, j := range h.entries {
		if l, ok := m.live(h, j); ok && e.oid == oid && l.drained {
			drained = append(drained, e.addr)
		} else if ok && e.oid == oid {
			healthy = append(healthy, e.addr)
		}
	}
	if len(healthy) == 0 {
		healthy = drained
	}
	slices.Sort(healthy)
	return healthy
}

// TestSessionSpec drives servers' sessions against a root and a
// two-subnode leaf through seeded random steps — attach, detach, batch
// attach, renewal rounds, drain on and off, close (and a successor at
// the same address), the clock past a TTL, sweeps, and a rollback of
// leaf subnode 0 to state it saved earlier — and applies each step to
// the spec. After every step each node's record count and every
// object's lookup from another leaf match the spec.
func TestSessionSpec(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runSpec(t, seed, 300) })
	}
}

func runSpec(t *testing.T, seed int64, steps int) {
	net := netsim.New(nil)
	net.AddSite("root-site", "core", "core")
	net.AddSite("nl-a", "eu-nl", "eu")
	net.AddSite("nl-b", "eu-nl", "eu")
	net.AddSite("us-site", "us-ca", "us")
	clock := newFakeClock()
	tree, err := Deploy(net, DomainSpec{Name: "root", Sites: []string{"root-site"}, Children: []DomainSpec{
		{Name: "eu/nl", Sites: []string{"nl-a", "nl-b"}},
		Leaf("us/ca", "us-site"),
	}}, WithTreeClock(clock.Now), WithTreeSweep(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	restartNode(t, tree, "eu/nl", t.TempDir()) // subnode 0 keeps state to roll back
	res := mustResolver(t, tree, "nl-a", "eu/nl")
	far := mustResolver(t, tree, "us-site", "us/ca")

	rng := rand.New(rand.NewSource(seed))
	oids := make([]ids.OID, 10)
	for i := range oids {
		rng.Read(oids[i][:])
	}
	m := &spec{now: clock.Now(), ttl: 10 * time.Second, ptr: map[ids.OID]bool{}}
	for i := range m.leaf {
		m.leaf[i] = specHeld{entries: map[specEntry]int{}, sessions: map[int]specLease{}}
	}
	open := func(addr string) {
		sess, _, err := res.OpenSession(addr, m.ttl)
		if err != nil {
			t.Fatal(err)
		}
		m.servers = append(m.servers, &specServer{sess: sess, addr: addr, books: map[ids.OID]bool{}})
		for i := range m.leaf {
			m.leaf[i].sessions[len(m.servers)-1] = specLease{expires: m.now.Add(m.ttl)}
		}
	}
	for i := 0; i < 3; i++ {
		open(fmt.Sprintf("srv-%d:gos/obj", i))
	}
	t.Cleanup(func() {
		for _, s := range m.servers {
			if !s.closed {
				s.sess.Close()
			}
		}
	})
	ca := func(s *specServer) ContactAddress {
		return ContactAddress{Protocol: "masterslave", Address: s.addr, Impl: "pkg/1", Role: "slave"}
	}
	var saved *specHeld
	var savedDir string

	for step := 0; step < steps; step++ {
		var live []int
		for j, s := range m.servers {
			if !s.closed {
				live = append(live, j)
			}
		}
		j := live[rng.Intn(len(live))]
		s := m.servers[j]
		oid := oids[rng.Intn(len(oids))]
		var did string
		switch r := rng.Intn(100); {
		case r < 26:
			did = "attach"
			if _, _, err := s.sess.Attach(oid, ca(s)); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.at(oid).sessions[j]; !ok { // Attach reopens a lost session, undrained
				m.at(oid).sessions[j] = specLease{expires: m.now.Add(m.ttl)}
			}
			m.put(j, oid)
			s.books[oid] = true
		case r < 38:
			did = "detach"
			if _, err := s.sess.Detach(oid); err != nil {
				t.Fatal(err)
			}
			if h := m.at(oid); s.books[oid] {
				m.drop(h, func(e specEntry, _ int) bool { return e != specEntry{s.addr, oid} })
			}
			delete(s.books, oid)
		case r < 46:
			did = "batch"
			batch := map[ids.OID]ContactAddress{}
			for k := rng.Intn(4); k >= 0; k-- {
				batch[oids[rng.Intn(len(oids))]] = ca(s)
			}
			if _, err := s.sess.AttachBatch(batch); err != nil {
				t.Fatal(err)
			}
			for oid := range batch {
				m.at(oid).sessions[j] = specLease{m.now.Add(m.ttl), s.drained}
				m.put(j, oid)
				s.books[oid] = true
			}
		case r < 58:
			did = "renewal round"
			for _, j := range live {
				if _, err := m.servers[j].sess.Renew(); err != nil {
					t.Fatal(err)
				}
				m.renew(j)
			}
		case r < 64:
			did = "drain"
			s.drained = !s.drained
			if _, err := s.sess.Drain(s.drained); err != nil {
				t.Fatal(err)
			}
			m.renew(j)
		case r < 67:
			did = "close"
			if _, err := s.sess.Close(); err != nil {
				t.Fatal(err)
			}
			s.closed = true
			for i := range m.leaf {
				delete(m.leaf[i].sessions, j)
			}
			open(s.addr) // a successor at the same address
		case r < 73:
			did = "advance"
			clock.Advance(m.ttl + time.Second)
			m.now = clock.Now()
		case r < 82:
			did = "sweep"
			for _, d := range tree.Domains() {
				for _, n := range tree.Nodes(d) {
					n.SweepExpired()
				}
			}
			m.sweep()
		case r < 91 && saved == nil:
			did = "save"
			savedDir = saveState(t, tree.Nodes("eu/nl")[0])
			saved = &specHeld{entries: maps.Clone(m.leaf[0].entries), sessions: maps.Clone(m.leaf[0].sessions)}
		case r >= 91 && saved != nil:
			did = "rollback"
			restartNode(t, tree, "eu/nl", savedDir)
			m.restore(*saved)
			saved = nil
		default:
			continue
		}
		checkSpec(t, tree, far, m, oids, fmt.Sprintf("step %d (%s by server %d)", step, did, j))
	}
}

// checkSpec compares every node's record count and every object's
// lookup from the far leaf with the spec.
func checkSpec(t *testing.T, tree *Tree, far *Resolver, m *spec, oids []ids.OID, after string) {
	t.Helper()
	for i, n := range tree.Nodes("eu/nl") {
		checkSessions(t, n)
		records := map[ids.OID]bool{}
		for e := range m.leaf[i].entries {
			records[e.oid] = true
		}
		if got := n.Records(); got != len(records) {
			t.Fatalf("after %s: leaf subnode %d holds %d records, the spec %d", after, i, got, len(records))
		}
	}
	ptrs := 0
	for _, on := range m.ptr {
		if on {
			ptrs++
		}
	}
	if got := tree.Nodes("root")[0].Records(); got != ptrs {
		t.Fatalf("after %s: the root holds %d records, the spec %d", after, got, ptrs)
	}
	for _, oid := range oids {
		addrs, _, err := far.Lookup(oid)
		var got []string
		for _, ca := range addrs {
			got = append(got, ca.Address)
		}
		slices.Sort(got)
		want := m.lookup(oid)
		if (err != nil) != (want == nil) || !slices.Equal(got, want) || (err != nil && !errors.Is(err, ErrNotFound)) {
			t.Fatalf("after %s: lookup of %s = %v, %v; the spec says %v", after, oid.Short(), got, err, want)
		}
	}
}
