package dns

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"gdn/internal/rpc"
	"gdn/internal/transport"
)

// Resolver is a caching stub resolver. It iterates from configured root
// servers, following delegation referrals, and caches answers by TTL —
// the behaviour the paper's GNS design depends on: "DNS ... allows ...
// caching entries at client-side resolvers and ... replicating parts of
// the database on multiple machines" (§5).
//
// Time for cache expiry is virtual: the resolver's clock only advances
// when the caller calls Advance, so simulations control TTL behaviour
// deterministically. Daemons never call Advance, so their entries never
// expire; the cache holds at most maxCacheEntries instead. Resolvers
// are safe for concurrent use.
type Resolver struct {
	roots   []string
	clients *rpc.Clients

	// CacheEnabled controls positive and negative caching; the E7
	// experiment compares resolution cost with and without it.
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

type cacheKey struct {
	name string
	t    Type
}

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
	return &Resolver{
		roots:        append([]string(nil), roots...),
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
	e, ok := r.cache[cacheKey{name, t}]
	if !ok || e.expireAt <= r.clock {
		return cacheEntry{}, false
	}
	r.cacheHits++
	return e, true
}

func (r *Resolver) cachePut(name string, t Type, rrs []RR, rcode RCode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.CacheEnabled {
		return
	}
	ttl := negativeTTL
	if len(rrs) > 0 {
		min := rrs[0].TTL
		for _, rr := range rrs {
			if rr.TTL < min {
				min = rr.TTL
			}
		}
		ttl = time.Duration(min) * time.Second
	}
	if ttl <= 0 {
		return
	}
	key := cacheKey{name, t}
	if _, ok := r.cache[key]; !ok && len(r.cache) >= maxCacheEntries {
		r.evictLocked()
	}
	expireAt := r.clock + ttl
	r.cache[key] = cacheEntry{rrs: rrs, rcode: rcode, expireAt: expireAt}
	r.minExpire = min(r.minExpire, expireAt)
}

// evictLocked makes room for one entry in a full cache: it drops every
// expired entry or, when none has expired, one arbitrary entry. Caller
// holds r.mu.
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
	for k := range r.cache {
		delete(r.cache, k)
		break
	}
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

// Query resolves one question iteratively.
func (r *Resolver) Query(name string, t Type) (Result, error) {
	name = CanonicalName(name)
	if !ValidName(name) {
		return Result{}, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if e, ok := r.cacheGet(name, t); ok {
		return Result{RRs: e.rrs, RCode: e.rcode, FromCache: true}, nil
	}

	servers := r.roots
	var total time.Duration
	for hop := 0; hop < maxChase; hop++ {
		if len(servers) == 0 {
			return Result{Cost: total}, fmt.Errorf("dns: no servers to ask for %q", name)
		}
		addr := servers[r.pick(len(servers))]
		resp, cost, err := r.exchange(addr, &Message{
			ID:        uint16(r.pick(1 << 16)),
			Opcode:    OpcodeQuery,
			Questions: []Question{{Name: name, Type: t, Class: ClassIN}},
		})
		total += cost
		if err != nil {
			return Result{Cost: total}, fmt.Errorf("dns: query %s at %s: %w", name, addr, err)
		}

		switch {
		case resp.RCode == RCodeNXDomain, resp.RCode == RCodeOK && len(resp.Answers) > 0,
			resp.RCode == RCodeOK && resp.Authoritative && len(resp.Authority) == 0:
			// Terminal: an answer, NXDOMAIN, or an authoritative NODATA.
			r.cachePut(name, t, resp.Answers, resp.RCode)
			return Result{RRs: resp.Answers, RCode: resp.RCode, Cost: total}, nil
		case resp.RCode == RCodeOK && len(resp.Authority) > 0:
			// Referral: chase the delegation using supplied glue.
			next := referralServers(resp)
			if len(next) == 0 {
				return Result{Cost: total}, fmt.Errorf("dns: glueless referral for %q at %s", name, addr)
			}
			servers = next
		default:
			return Result{RCode: resp.RCode, Cost: total},
				fmt.Errorf("dns: server %s answered %v for %q", addr, resp.RCode, name)
		}
	}
	return Result{Cost: total}, fmt.Errorf("dns: referral chain for %q exceeds %d hops", name, maxChase)
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
	respBody, cost, err := r.clients.Get(addr).Call(OpDNS, body)
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

// referralServers extracts the next server addresses from a referral:
// glue ADDR records matching the authority NS names.
func referralServers(resp *Message) []string {
	var out []string
	for _, ns := range resp.Authority {
		if ns.Type != TypeNS {
			continue
		}
		for _, g := range resp.Additional {
			if g.Type == TypeADDR && g.Name == CanonicalName(ns.Data) {
				out = append(out, g.Data)
			}
		}
	}
	return out
}
