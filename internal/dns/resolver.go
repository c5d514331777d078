package dns

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/transport"
)

// Resolver is a caching stub resolver. It iterates from configured root
// servers, following delegation referrals, and caches answers by TTL —
// the behaviour the paper's GNS design depends on: "DNS ... allows ...
// caching entries at client-side resolvers and ... replicating parts of
// the database on multiple machines" (§5).
//
// It also caches the delegations it is referred through (RFC 1034
// §5.3.3): a zone cut and the glue addresses of its servers, under the
// NS records' TTL, in the same bounded cache as the answers. A query
// starts at the deepest cached cut above its name, so a second cold
// name in a zone costs one message instead of a walk from the roots.
// Only in-bailiwick referrals are cached: the cut must be at or above
// the query name and strictly below the zone whose server referred to
// it, and every referral before it must have been in-bailiwick too.
// When the first exchange from a cached cut fails or is refused, the
// resolver drops the cut and starts once more from the roots.
// Delegation hits do not count in CacheHits.
//
// Time for cache expiry is virtual: the resolver's clock only advances
// when the caller calls Advance, so simulations control TTL behaviour
// deterministically. Daemons never call Advance, so their answers and
// delegations never expire; the cache holds at most maxCacheEntries
// instead, and a delegation whose servers moved is dropped by the
// failure rule above. Resolvers are safe for concurrent use.
type Resolver struct {
	roots   []RR // ADDR records of the root servers
	clients *rpc.Clients

	// CacheEnabled controls positive, negative and delegation caching;
	// the E7 experiment compares resolution cost with and without it.
	CacheEnabled bool

	mu    sync.Mutex
	cache map[cacheKey]cacheEntry
	clock time.Duration
	// minExpire is a lower bound on every cached entry's expireAt: while
	// clock is below it, nothing in the cache has expired.
	minExpire time.Duration
	rnd       *rand.Rand

	queriesSent int64
	cacheHits   int64
}

// cacheKey names an answer (name, type) or, with cut set, the
// delegation of the zone cut at name.
type cacheKey struct {
	name string
	t    Type
	cut  bool
}

// cacheEntry is an answer, or a delegation whose rrs are the ADDR
// records of the cut's servers.
type cacheEntry struct {
	rrs      []RR
	rcode    RCode
	expireAt time.Duration
}

// negativeTTL is how long NXDOMAIN/NODATA answers are cached.
const negativeTTL = 60 * time.Second

// maxCacheEntries bounds the cache, so a long-running process that
// resolves ever new names (a moderator publishing packages) holds a
// fixed amount of it.
const maxCacheEntries = 1024

// NewResolver returns a caching resolver at site using the given root
// server addresses.
func NewResolver(net transport.Network, site string, roots []string) *Resolver {
	rootRRs := make([]RR, len(roots))
	for i, addr := range roots {
		rootRRs[i] = RR{Type: TypeADDR, Data: addr}
	}
	return &Resolver{
		roots:        rootRRs,
		clients:      rpc.NewClients(net, site),
		CacheEnabled: true,
		cache:        make(map[cacheKey]cacheEntry),
		rnd:          rand.New(rand.NewSource(1)),
	}
}

// Close releases pooled connections.
func (r *Resolver) Close() error { return r.clients.Close() }

// Advance moves the resolver's virtual clock forward, expiring cache
// entries whose TTL has passed.
func (r *Resolver) Advance(d time.Duration) {
	r.mu.Lock()
	r.clock += d
	r.mu.Unlock()
}

// FlushCache drops all cached entries.
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	r.cache = make(map[cacheKey]cacheEntry)
	r.mu.Unlock()
}

// QueriesSent counts messages actually sent to servers; CacheHits
// counts questions answered locally.
func (r *Resolver) QueriesSent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queriesSent
}

// CacheHits counts questions answered from the local cache.
func (r *Resolver) CacheHits() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheHits
}

func (r *Resolver) cacheGet(name string, t Type) (cacheEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.CacheEnabled {
		return cacheEntry{}, false
	}
	e, ok := r.cache[cacheKey{name: name, t: t}]
	if !ok || e.expireAt <= r.clock {
		return cacheEntry{}, false
	}
	r.cacheHits++
	return e, true
}

// closestCut returns the deepest cached zone cut at or above name and
// its servers, or the root zone "" and the root servers.
func (r *Resolver) closestCut(name string) (string, []RR) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.CacheEnabled {
		return "", r.roots
	}
	for cut := name; cut != ""; cut = Parent(cut) {
		if e, ok := r.cache[cacheKey{name: cut, cut: true}]; ok && e.expireAt > r.clock {
			return cut, e.rrs
		}
	}
	return "", r.roots
}

// dropCut forgets the delegation of a zone cut.
func (r *Resolver) dropCut(cut string) {
	r.mu.Lock()
	delete(r.cache, cacheKey{name: cut, cut: true})
	r.mu.Unlock()
}

// put caches e under key for ttl.
func (r *Resolver) put(key cacheKey, e cacheEntry, ttl time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.CacheEnabled || ttl <= 0 {
		return
	}
	if _, ok := r.cache[key]; !ok && len(r.cache) >= maxCacheEntries {
		r.evictLocked()
	}
	e.expireAt = r.clock + ttl
	r.cache[key] = e
	r.minExpire = min(r.minExpire, e.expireAt)
}

// answerTTL is how long an answer stays cached: its records' smallest
// TTL, or negativeTTL for NXDOMAIN and NODATA.
func answerTTL(rrs []RR) time.Duration {
	if len(rrs) == 0 {
		return negativeTTL
	}
	m := rrs[0].TTL
	for _, rr := range rrs[1:] {
		m = min(m, rr.TTL)
	}
	return time.Duration(m) * time.Second
}

// evictLocked makes room for one entry in a full cache: it drops every
// expired entry or, when none has expired, the first answer it meets.
// A zone cut goes only when the cache holds nothing else, since losing
// one sends every later name below it back to the roots. Caller holds
// r.mu.
func (r *Resolver) evictLocked() {
	if r.clock >= r.minExpire {
		next := time.Duration(math.MaxInt64)
		for k, e := range r.cache {
			if e.expireAt <= r.clock {
				delete(r.cache, k)
			} else {
				next = min(next, e.expireAt)
			}
		}
		r.minExpire = next
	}
	if len(r.cache) < maxCacheEntries {
		return
	}
	var cut cacheKey
	for k := range r.cache {
		if !k.cut {
			delete(r.cache, k)
			return
		}
		cut = k
	}
	delete(r.cache, cut)
}

// Result is the outcome of one resolution.
type Result struct {
	RRs   []RR
	RCode RCode
	// Cost is the virtual network cost of the messages sent; zero when
	// the cache answered.
	Cost time.Duration
	// FromCache reports whether the local cache supplied the answer.
	FromCache bool
}

// maxChase bounds referral chains so delegation loops terminate.
const maxChase = 16

// Query resolves one question iteratively, starting at the deepest
// cached zone cut above the name.
func (r *Resolver) Query(name string, t Type) (Result, error) {
	name = CanonicalName(name)
	if !ValidName(name) {
		return Result{}, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if e, ok := r.cacheGet(name, t); ok {
		return Result{RRs: e.rrs, RCode: e.rcode, FromCache: true}, nil
	}
	cut, servers := r.closestCut(name)
	res, startFailed, err := r.iterate(name, t, cut, servers)
	if startFailed && cut != "" {
		// The cached servers are gone or no longer serve the zone.
		r.dropCut(cut)
		again, _, err := r.iterate(name, t, "", r.roots)
		again.Cost += res.Cost
		return again, err
	}
	return res, err
}

// iterate asks servers, the servers of zone, and follows referrals to
// an answer. It caches the answer and every delegation it is referred
// through while each referral stays in bailiwick. startFailed reports
// an error from the first exchange, the one with the given servers.
func (r *Resolver) iterate(name string, t Type, zone string, servers []RR) (res Result, startFailed bool, err error) {
	inBailiwick := true
	for hop := 0; hop < maxChase; hop++ {
		if len(servers) == 0 {
			return res, hop == 0, fmt.Errorf("dns: no servers to ask for %q", name)
		}
		addr := servers[r.pick(len(servers))].Data
		resp, cost, err := r.exchange(addr, &Message{
			ID:        uint16(r.pick(1 << 16)),
			Opcode:    OpcodeQuery,
			Questions: []Question{{Name: name, Type: t, Class: ClassIN}},
		})
		res.Cost += cost
		if err != nil {
			return res, hop == 0, fmt.Errorf("dns: query %s at %s: %w", name, addr, err)
		}

		switch {
		case resp.RCode == RCodeNXDomain, resp.RCode == RCodeOK && len(resp.Answers) > 0,
			resp.RCode == RCodeOK && resp.Authoritative && len(resp.Authority) == 0:
			// Terminal: an answer, NXDOMAIN, or an authoritative NODATA.
			r.put(cacheKey{name: name, t: t}, cacheEntry{rrs: resp.Answers, rcode: resp.RCode}, answerTTL(resp.Answers))
			res.RRs, res.RCode = resp.Answers, resp.RCode
			return res, false, nil
		case resp.RCode == RCodeOK && len(resp.Authority) > 0:
			// Referral: chase the delegation using supplied glue.
			next := referralServers(resp)
			if len(next) == 0 {
				return res, hop == 0, fmt.Errorf("dns: glueless referral for %q at %s", name, addr)
			}
			cut, ttl := referralCut(resp)
			inBailiwick = inBailiwick && cut != zone && InZone(cut, zone) && InZone(name, cut)
			if inBailiwick {
				r.put(cacheKey{name: cut, cut: true}, cacheEntry{rrs: next}, ttl)
			}
			zone, servers = cut, next
		default:
			res.RCode = resp.RCode
			return res, hop == 0, fmt.Errorf("dns: server %s answered %v for %q", addr, resp.RCode, name)
		}
	}
	return res, false, fmt.Errorf("dns: referral chain for %q exceeds %d hops", name, maxChase)
}

// QueryTXT resolves the TXT records at a name and returns their data.
func (r *Resolver) QueryTXT(name string) ([]string, Result, error) {
	res, err := r.Query(name, TypeTXT)
	if err != nil {
		return nil, res, err
	}
	if res.RCode != RCodeOK {
		return nil, res, fmt.Errorf("dns: %s: %v", name, res.RCode)
	}
	var texts []string
	for _, rr := range res.RRs {
		texts = append(texts, rr.Data)
	}
	return texts, res, nil
}

// Send delivers an arbitrary pre-built message (e.g. a signed dynamic
// update) to one server address and returns the decoded response.
func (r *Resolver) Send(addr string, msg *Message) (*Message, time.Duration, error) {
	return r.exchange(addr, msg)
}

func (r *Resolver) exchange(addr string, msg *Message) (*Message, time.Duration, error) {
	body, err := Encode(msg)
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	r.queriesSent++
	r.mu.Unlock()
	respBody, cost, err := r.clients.Get(addr).Call(obs.SpanContext{}, OpDNS, body)
	if err != nil {
		return nil, cost, err
	}
	resp, err := Decode(respBody)
	if err != nil {
		return nil, cost, err
	}
	return resp, cost, nil
}

func (r *Resolver) pick(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rnd.Intn(n)
}

// referralServers extracts the glue of a referral: the ADDR records of
// the authority NS names.
func referralServers(resp *Message) []RR {
	var out []RR
	for _, ns := range resp.Authority {
		if ns.Type != TypeNS {
			continue
		}
		for _, g := range resp.Additional {
			if g.Type == TypeADDR && g.Name == CanonicalName(ns.Data) {
				out = append(out, g)
			}
		}
	}
	return out
}

// referralCut returns the zone cut a referral delegates and the
// smallest TTL of its NS records. A referral whose NS records name
// more than one cut delegates none: its TTL is zero, so nothing caches.
func referralCut(resp *Message) (string, time.Duration) {
	cut, ttl := "", time.Duration(-1)
	for _, ns := range resp.Authority {
		if ns.Type != TypeNS {
			continue
		}
		if ttl >= 0 && ns.Name != cut {
			return cut, 0
		}
		cut = ns.Name
		if d := time.Duration(ns.TTL) * time.Second; ttl < 0 || d < ttl {
			ttl = d
		}
	}
	return cut, max(ttl, 0)
}
