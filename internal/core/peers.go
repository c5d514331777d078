package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/gls"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/transport"
)

// Process-wide mirrors of the per-set counters, so the registry shows
// failover and re-resolve pressure across every proxy at once.
var (
	mFailovers = obs.Default.Counter("gdn_peerset_failovers_total",
		"calls moved to the next ranked peer after a failoverable error")
	mResolves = obs.Default.Counter("gdn_peerset_resolves_total",
		"location-service re-resolves of a peer set")
)

// PeerSet is the shared ranked peer-set behind every proxy-side
// replication subobject: the contact addresses the location service
// returned, tracked with per-peer health (consecutive failures, a
// latency EWMA of successful calls) and refreshed through the runtime
// so replicas that appear after binding are discovered and dead ones
// age out. It replaces the bind-time "pin Peers[0] forever" behaviour
// that turned one replica crash into an outage for every client bound
// before it.
//
// Ranking: peers are grouped by role preference (most capable first),
// healthy peers come before ones in failure backoff, and the healthy
// group is shuffled per call so concurrent proxies spread load across
// interchangeable replicas instead of herding onto one — with
// chronically slow peers (latency EWMA far above the group's best)
// demoted to the back of their group.
//
// Health is tracked per operation class (reads and writes separately)
// and in three tiers: healthy (no active streak), probing (streak
// present but its backoff expired — one attempt is allowed through to
// test recovery), and backed-off. A peer only returns to healthy on an
// actual success, so a backoff expiring does not flip it ahead of
// proven-good candidates — the flapping an asymmetric partition used
// to cause, where a peer reachable for writes but timing out on reads
// bounced between top- and bottom-ranked every backoff period.
//
// Failover: Do walks the ranking and retries the attempt on the next
// candidate when the failure class allows it. Reads fail over on any
// transport-level error; writes only on errors that prove the request
// never reached a replica (unreachable destination, no listener, a
// provably-unsent rpc failure) — a connection that died mid-call
// leaves a write's fate unknown, and replaying it is the caller's
// decision, not the routing layer's.
type PeerSet struct {
	env        *Env
	protocol   string   // contact-address protocol this set serves
	readPrefs  []string // role preference order for reads
	writePrefs []string // role preference order for writes
	exclude    string   // own dispatcher address, never a candidate
	pinned     bool     // fixed candidate set; no re-resolution

	mu         sync.Mutex
	rnd        *rand.Rand
	peers      map[string]*peerState
	resolvedAt time.Time

	failovers atomic.Int64
	resolves  atomic.Int64
}

// Operation classes for per-peer health. A one-way partition can leave
// a peer serving one class while the other times out; sharing a single
// streak would let write successes mask read deadness (and vice
// versa), so each class keeps its own record.
const (
	opRead = iota
	opWrite
	opClasses
)

func opClass(write bool) int {
	if write {
		return opWrite
	}
	return opRead
}

// peerState is one candidate's health record.
type peerState struct {
	ca       gls.ContactAddress
	fails    [opClasses]int       // consecutive failures per operation class
	lastFail [opClasses]time.Time // when each streak's latest failure happened
	ewma     time.Duration        // latency EWMA of successful calls (virtual cost)
}

// Health tiers, best first. Probing sits between: the streak's backoff
// has expired, so the peer may be tried — but only behind every
// healthy candidate, and it must actually succeed to regain tierGood.
const (
	tierGood = iota
	tierProbe
	tierBackedOff
)

// tier classifies one operation class's health at time now.
func (st *peerState) tier(class int, now time.Time) int {
	if st.fails[class] == 0 {
		return tierGood
	}
	if now.Sub(st.lastFail[class]) >= backoff(st.fails[class]) {
		return tierProbe
	}
	return tierBackedOff
}

// Peer-set tuning. Constants rather than scenario parameters: these
// shape routing inside one address space, not replica consistency.
const (
	// peerFailBackoff is the base cool-down after a failure; it doubles
	// per consecutive failure up to peerMaxBackoff. A peer in backoff
	// ranks behind every healthy candidate but is never unreachable —
	// when everything else is down it still gets tried.
	peerFailBackoff = 2 * time.Second
	peerMaxBackoff  = 30 * time.Second
	// peerRefreshEvery re-resolves the contact-address set through the
	// runtime on a slow cadence; exhausting every candidate forces an
	// immediate re-resolve regardless.
	peerRefreshEvery = 30 * time.Second
	// peerSlowFactor demotes a peer whose latency EWMA exceeds this
	// multiple of the best in its ranking group.
	peerSlowFactor = 4
)

// peerSeed distinguishes every PeerSet's RNG. Seeding from object
// bytes (the old msProxy scheme) made every proxy of one object pick
// the same "random" replica order world-wide, herding its whole read
// load onto one slave; a process-wide counter keeps instances
// independent while staying deterministic enough to debug.
var peerSeed atomic.Int64

// NewPeerSet builds the ranked peer-set for a proxy or a hosted
// replica. The initial candidates come from env.Peers (the lookup that
// bound the object, or the creation scenario), filtered to the given
// protocol; readPrefs and writePrefs order the roles from most to
// least capable for each operation class. A hosted replica's own
// dispatcher address is never a candidate — a registered cache must
// not discover itself as its own parent on a re-resolve.
func NewPeerSet(env *Env, protocol string, readPrefs, writePrefs []string) (*PeerSet, error) {
	return newPeerSet(env, env.Peers, protocol, readPrefs, writePrefs, false)
}

// NewPeerSetPinned builds a single-candidate set for a scenario that
// pins its upstream to one address (the cache protocol's "parent"
// parameter): same health bookkeeping and call plumbing, but no role
// ranking and no re-resolution.
func NewPeerSetPinned(env *Env, addr string) (*PeerSet, error) {
	return newPeerSet(env, []gls.ContactAddress{{Address: addr}}, "", nil, nil, true)
}

func newPeerSet(env *Env, cas []gls.ContactAddress, protocol string, readPrefs, writePrefs []string, pinned bool) (*PeerSet, error) {
	ps := &PeerSet{
		env:        env,
		protocol:   protocol,
		readPrefs:  readPrefs,
		writePrefs: writePrefs,
		pinned:     pinned,
		rnd:        rand.New(rand.NewSource(peerSeed.Add(1)*0x5851F42D4C957F2D + time.Now().UnixNano())),
		peers:      make(map[string]*peerState),
		resolvedAt: env.Now(),
	}
	if env.Disp != nil {
		ps.exclude = env.Disp.Addr()
	}
	ps.mergeLocked(cas)
	if len(ps.peers) == 0 {
		return nil, fmt.Errorf("core: no contactable representative among %d peers", len(cas))
	}
	return ps, nil
}

// mergeLocked reconciles the candidate set with a fresh lookup result:
// new addresses join with clean health, known ones keep their health
// record, and addresses the location service no longer returns are
// dropped. A result with no usable candidate leaves the set
// untouched — lookups are proximity-based, so a registered cache
// asking the location service for its object gets its own (excluded)
// address back as the nearest replica, and emptying the set on that
// answer would orphan the cache from its parents.
// Callers hold ps.mu or own ps exclusively (construction).
func (ps *PeerSet) mergeLocked(addrs []gls.ContactAddress) {
	seen := make(map[string]bool, len(addrs))
	for _, ca := range addrs {
		if ps.protocol != "" && ca.Protocol != ps.protocol {
			continue
		}
		if ps.exclude != "" && ca.Address == ps.exclude {
			continue
		}
		seen[ca.Address] = true
	}
	if len(seen) == 0 && len(ps.peers) > 0 {
		return
	}
	for _, ca := range addrs {
		if !seen[ca.Address] {
			continue
		}
		if st, ok := ps.peers[ca.Address]; ok {
			st.ca = ca // role may have changed (slave promoted, ...)
			continue
		}
		ps.peers[ca.Address] = &peerState{ca: ca}
	}
	for addr := range ps.peers {
		if !seen[addr] {
			delete(ps.peers, addr)
		}
	}
}

// refresh re-resolves the contact-address set through the runtime.
// force skips the staleness check (used when every candidate failed).
// It reports whether a lookup actually ran.
func (ps *PeerSet) refresh(force bool) (time.Duration, bool) {
	if ps.env.Resolve == nil || ps.pinned {
		return 0, false
	}
	now := ps.env.Now()
	ps.mu.Lock()
	stale := now.Sub(ps.resolvedAt) >= peerRefreshEvery
	ps.mu.Unlock()
	if !stale && !force {
		return 0, false
	}
	addrs, cost, err := ps.env.Resolve()
	ps.resolves.Add(1)
	mResolves.Inc()
	if err != nil {
		// A failed lookup (location service unreachable, or the object
		// gone) keeps the current set: stale candidates still beat none.
		ps.env.Logf("core: peer-set re-resolve for %s: %v", ps.env.OID.Short(), err)
		return cost, false
	}
	ps.mu.Lock()
	ps.mergeLocked(addrs)
	ps.resolvedAt = now
	ps.mu.Unlock()
	return cost, true
}

// ClientFor returns the client for a candidate address, on the
// runtime's shared connection. Callers that orchestrate per-candidate
// traffic themselves (the active protocol's all-peer chunk
// negotiation) reach the candidates through it.
func (ps *PeerSet) ClientFor(addr string) *PeerClient { return ps.env.Dial(addr) }

// PickAddr returns the currently top-ranked candidate for the given
// operation class — the address a caller should treat as its upstream
// right now (the cache protocol's parent). false when the set is empty.
func (ps *PeerSet) PickAddr(write bool) (string, bool) {
	addrs := ps.candidates(write)
	if len(addrs) == 0 {
		return "", false
	}
	return addrs[0], true
}

// backoff returns the cool-down after n consecutive failures.
func backoff(n int) time.Duration {
	d := peerFailBackoff
	for i := 1; i < n && d < peerMaxBackoff; i++ {
		d *= 2
	}
	if d > peerMaxBackoff {
		d = peerMaxBackoff
	}
	return d
}

// prefIndex maps a role to its rank in a preference list; unlisted
// roles rank last (still usable, like pickPeer's final fallback).
func prefIndex(prefs []string, role string) int {
	for i, p := range prefs {
		if p == role {
			return i
		}
	}
	return len(prefs)
}

// candidates returns the ranked address order for one attempt.
func (ps *PeerSet) candidates(write bool) []string {
	prefs := ps.readPrefs
	if write {
		prefs = ps.writePrefs
	}
	now := ps.env.Now()
	class := opClass(write)

	type ranked struct {
		addr    string
		pref    int
		tier    int
		fails   int
		ewma    time.Duration
		shuffle int
	}
	ps.mu.Lock()
	out := make([]ranked, 0, len(ps.peers))
	for addr, st := range ps.peers {
		out = append(out, ranked{
			addr:    addr,
			pref:    prefIndex(prefs, st.ca.Role),
			tier:    st.tier(class, now),
			fails:   st.fails[class],
			ewma:    st.ewma,
			shuffle: ps.rnd.Int(),
		})
	}
	ps.mu.Unlock()

	// Latency demotion: within each healthy pref group, a peer whose
	// EWMA is far above the group's best goes behind its siblings.
	best := make(map[int]time.Duration)
	for _, r := range out {
		if r.tier != tierGood || r.ewma == 0 {
			continue
		}
		if b, ok := best[r.pref]; !ok || r.ewma < b {
			best[r.pref] = r.ewma
		}
	}
	slow := func(r ranked) bool {
		b, ok := best[r.pref]
		return ok && r.tier == tierGood && r.ewma > time.Duration(peerSlowFactor)*b
	}
	sortRanked(out, func(a, b ranked) bool {
		// Health outranks role preference: a healthy fallback beats a
		// preferred-role peer in failure backoff — the whole point of
		// the set is never handing traffic to a known corpse while an
		// alternative lives. An expired backoff only promotes a peer to
		// the probing tier, still behind everything healthy, so one
		// probe (not the whole herd) tests its recovery.
		if a.tier != b.tier {
			return a.tier < b.tier
		}
		if a.tier != tierGood {
			if a.pref != b.pref {
				return a.pref < b.pref
			}
			return a.fails < b.fails
		}
		if a.pref != b.pref {
			return a.pref < b.pref
		}
		if sa, sb := slow(a), slow(b); sa != sb {
			return !sa
		}
		return a.shuffle < b.shuffle
	})
	addrs := make([]string, len(out))
	for i, r := range out {
		addrs[i] = r.addr
	}
	return addrs
}

// sortRanked is insertion sort: peer sets are a handful of entries,
// and it saves pulling in sort/slices closure machinery on a hot path.
func sortRanked[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// noteSuccess resets a peer's failure streak for one operation class
// and folds the observed latency into its EWMA. Only the served class
// recovers: a write landing on a peer whose reads time out (an
// asymmetric partition) must not relaunch read traffic at it.
func (ps *PeerSet) noteSuccess(addr string, write bool, cost time.Duration) {
	ps.mu.Lock()
	if st, ok := ps.peers[addr]; ok {
		st.fails[opClass(write)] = 0
		if cost > 0 {
			if st.ewma == 0 {
				st.ewma = cost
			} else {
				st.ewma = (3*st.ewma + cost) / 4
			}
		}
	}
	ps.mu.Unlock()
}

// noteFailure extends a peer's failure streak for one operation class.
func (ps *PeerSet) noteFailure(addr string, write bool) {
	now := ps.env.Now()
	ps.mu.Lock()
	if st, ok := ps.peers[addr]; ok {
		class := opClass(write)
		st.fails[class]++
		st.lastFail[class] = now
	}
	ps.mu.Unlock()
}

// noFailoverError marks an error as terminal for the failover loop:
// the failure is the caller's (a sink that refused bytes, a policy
// decision), not the candidate's, so trying another replica would
// repeat work that already partially happened.
type noFailoverError struct{ err error }

func (e *noFailoverError) Error() string { return e.err.Error() }
func (e *noFailoverError) Unwrap() error { return e.err }

// NoFailover wraps err so Do propagates it instead of retrying on the
// next candidate. errors.Is/As see through the wrapper.
func NoFailover(err error) error {
	if err == nil {
		return nil
	}
	return &noFailoverError{err: err}
}

// Failoverable classifies an error for retry-on-another-replica. App
// errors (the remote handler ran and said no) never fail over; for
// writes, only failures that prove the request never executed do —
// retrying an ambiguous write is an at-least-once decision the caller
// must make explicitly.
func Failoverable(err error, write bool) bool {
	var nf *noFailoverError
	if err == nil || rpc.IsRemote(err) || errors.As(err, &nf) {
		return false
	}
	if !write {
		return true
	}
	return errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrNoListener) ||
		rpc.IsUnsent(err)
}

// Do runs attempt against ranked candidates until one succeeds, the
// error stops being failover-safe, or every candidate (including any
// discovered by a forced re-resolve) has been tried. The attempt
// receives the candidate's address alongside its connection, so
// callers that must remember who served them (a cache re-subscribing
// at its new parent) can. It returns the accumulated virtual cost of
// all attempts plus any refresh lookup.
func (ps *PeerSet) Do(write bool, attempt func(addr string, pc *PeerClient) (time.Duration, error)) (time.Duration, error) {
	cost, _ := ps.refresh(false)
	tried := make(map[string]bool)
	var lastErr error
	for round := 0; round < 2; round++ {
		progressed := false
		for _, addr := range ps.candidates(write) {
			if tried[addr] {
				continue
			}
			tried[addr] = true
			progressed = true
			c, err := attempt(addr, ps.ClientFor(addr))
			cost += c
			if err == nil {
				ps.noteSuccess(addr, write, c)
				return cost, nil
			}
			lastErr = err
			var nf *noFailoverError
			if rpc.IsRemote(err) || errors.As(err, &nf) {
				// The peer is alive (it answered, or the failure was the
				// caller's own); its health record is not to blame.
				return cost, err
			}
			ps.noteFailure(addr, write)
			if !Failoverable(err, write) {
				return cost, err
			}
			ps.failovers.Add(1)
			mFailovers.Inc()
		}
		if round == 1 || !progressed {
			break
		}
		// Every known candidate failed: ask the location service for a
		// fresh set once — replicas created after we bound may be alive.
		c, ok := ps.refresh(true)
		cost += c
		if !ok {
			break
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: no contactable representative for %s", ps.env.OID.Short())
	}
	return cost, lastErr
}

// Call is Do specialised to one unary replica-protocol operation.
func (ps *PeerSet) Call(op uint16, body []byte, write bool) ([]byte, time.Duration, error) {
	var resp []byte
	cost, err := ps.Do(write, func(_ string, pc *PeerClient) (time.Duration, error) {
		r, c, err := pc.Call(op, body)
		if err == nil {
			resp = r
		}
		return c, err
	})
	return resp, cost, err
}

// Failovers returns how many attempts were retried on another
// candidate; tests assert failover happened (or didn't).
func (ps *PeerSet) Failovers() int64 { return ps.failovers.Load() }

// Resolves returns how many re-resolve lookups ran.
func (ps *PeerSet) Resolves() int64 { return ps.resolves.Load() }

// Addrs returns the current candidate addresses, unranked.
func (ps *PeerSet) Addrs() []string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]string, 0, len(ps.peers))
	for addr := range ps.peers {
		out = append(out, addr)
	}
	return out
}
