package repl

import (
	"fmt"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/rpc"
)

// CacheProtocol returns the pull-based caching subobject installed in
// GDN-enabled proxy servers and HTTPDs (§4): it fills from a parent
// replica on first use, serves reads from the local copy, and forwards
// writes upstream. Two coherence modes, selected by the scenario
// parameter "mode":
//
//   - "ttl" (default): the copy expires after the "ttl" duration and is
//     revalidated against the parent (a cheap version check that ships
//     state only when it changed);
//   - "invalidate": the copy stays valid until the parent's writer
//     pushes an invalidation; the cache subscribes at construction and
//     re-subscribes wherever it re-parents.
//
// The TTL-versus-invalidation trade-off is one of the ablations the
// differentiated-replication experiment runs (DESIGN.md §4, E4).
func CacheProtocol() *core.Protocol {
	return &core.Protocol{
		Name:     Cache,
		NewProxy: proxyOf(forwardPrefs, forwardPrefs),
		NewReplica: func(env *core.Env) (core.Replication, error) {
			return NewCacheReplica(env)
		},
	}
}

// CacheStats counts cache effectiveness for the experiments.
type CacheStats struct {
	// Hits served entirely from the local copy.
	Hits int64
	// Misses required a full state fetch.
	Misses int64
	// Revalidations confirmed freshness without shipping state.
	Revalidations int64
	// Invalidations received from the parent's writer.
	Invalidations int64
}

// cacheParentPrefs ranks parent candidates for TTL-mode caches:
// state-holding replicas first (a nearby slave beats the master for
// fills), protocol drivers next, and unlisted roles — other caches
// included — as the last resort. The cache's own address is never a
// candidate (the peer set excludes the hosting dispatcher), so a
// registered cache cannot re-parent onto itself.
var cacheParentPrefs = []string{RoleSlave, RoleServer, RoleMaster, RolePeer, RoleSequencer}

// invalidateParentPrefs ranks parents for invalidation-mode caches:
// only the protocol's write driver pushes OpInvalidate to its cache
// subscribers (the clientserver server, the masterslave master, the
// active sequencer — slaves and peers do not relay it), so filling
// and subscribing anywhere else would leave the cache serving stale
// state forever. Non-driver roles remain as last-resort fallbacks.
var invalidateParentPrefs = []string{RoleServer, RoleMaster, RoleSequencer}

// CacheReplica is the concrete caching subobject; it is exported so
// experiments can read its statistics after driving a workload. The
// parent is not a bind-time pin: a ranked peer set tracks every
// eligible upstream, fills fail over to the next candidate when one
// dies, and re-resolution discovers parents that appear after
// construction.
type CacheReplica struct {
	*replicaBase
	parents *core.PeerSet
	mode    string
	ttl     time.Duration
	resub   time.Duration

	cacheMu   sync.Mutex
	haveState bool
	fetchedAt time.Time
	stats     CacheStats
	// subscribedAt is the parent currently delivering invalidations
	// (invalidate mode only); when a fill is served by a different
	// parent the subscription follows it.
	subscribedAt string
	// checkedAt is when the subscription was last confirmed alive (a
	// successful subscribe or revalidation); the resub lease measures
	// from here.
	checkedAt time.Time
}

// Cache modes.
const (
	ModeTTL        = "ttl"
	ModeInvalidate = "invalidate"
)

// NewCacheReplica constructs a caching representative. The parent set
// is every non-cache peer the location service (or scenario) named,
// overridable with the "parent" parameter, which pins a single
// upstream address.
func NewCacheReplica(env *core.Env) (*CacheReplica, error) {
	if env.Disp == nil {
		return nil, fmt.Errorf("repl: %s replica needs a dispatcher", Cache)
	}
	mode := env.Param("mode", ModeTTL)
	if mode != ModeTTL && mode != ModeInvalidate {
		return nil, fmt.Errorf("repl: %s: unknown mode %q", Cache, mode)
	}
	ttl, err := time.ParseDuration(env.Param("ttl", "30s"))
	if err != nil {
		return nil, fmt.Errorf("repl: %s: bad ttl: %w", Cache, err)
	}
	// "resub" (invalidate mode) is the subscription lease: how long the
	// cache trusts its invalidation subscription before re-confirming
	// it with a version revalidation and a fresh subscribe. A parent
	// that crashed, restarted, or sat behind a partition silently
	// forgets its subscribers; without the lease such a cache serves
	// stale state forever. Zero (the default) keeps the pure
	// invalidate-mode contract: valid until told otherwise.
	resub, err := time.ParseDuration(env.Param("resub", "0s"))
	if err != nil {
		return nil, fmt.Errorf("repl: %s: bad resub: %w", Cache, err)
	}
	prefs := cacheParentPrefs
	if mode == ModeInvalidate {
		prefs = invalidateParentPrefs
	}
	var parents *core.PeerSet
	if pin := env.Param("parent", ""); pin != "" {
		parents, err = core.NewPeerSetPinned(env, pin)
	} else {
		parents, err = core.NewPeerSet(env, "", prefs, prefs)
	}
	if err != nil {
		return nil, fmt.Errorf("repl: %s replica for %s: no parent replica: %w", Cache, env.OID.Short(), err)
	}

	c := &CacheReplica{
		replicaBase: newReplicaBase(env),
		parents:     parents,
		mode:        mode,
		ttl:         ttl,
		resub:       resub,
	}
	if mode == ModeInvalidate {
		parent, ok := parents.PickAddr(false)
		if !ok {
			return nil, fmt.Errorf("repl: %s replica for %s: no parent replica", Cache, env.OID.Short())
		}
		if err := c.subscribeTo(parent, env.Disp.Addr(), RoleCache); err != nil {
			return nil, fmt.Errorf("repl: %s: subscribe for invalidations: %w", Cache, err)
		}
		c.subscribedAt = parent
		c.checkedAt = env.Now()
	}
	env.Disp.Register(env.OID, c.handle)
	return c, nil
}

// Stats snapshots the hit/miss counters.
func (c *CacheReplica) Stats() CacheStats {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	return c.stats
}

// Parent returns the currently preferred upstream replica address.
func (c *CacheReplica) Parent() string {
	addr, _ := c.parents.PickAddr(false)
	return addr
}

func (c *CacheReplica) Invoke(inv core.Invocation) ([]byte, time.Duration, error) {
	if inv.Write {
		// Write-through: the parent's protocol handles consistency; our
		// copy is stale the moment the write succeeds, so drop it.
		resp, cost, err := c.parents.Call(core.OpInvoke, inv.Encode(), true)
		if err == nil {
			c.drop()
		}
		return resp, cost, err
	}
	cost, err := c.ensureFresh(obs.SpanContext{})
	if err != nil {
		return nil, cost, err
	}
	out, err := c.env.Exec.Execute(inv)
	return out, cost, err
}

// ReadBulk implements core.Replication: the cache fills (or
// revalidates) first, then streams from its local copy — repeated
// downloads through a GDN proxy cost no upstream traffic.
func (c *CacheReplica) ReadBulk(tc obs.SpanContext, path string, off, n int64, fn func([]byte) error) (core.Manifest, time.Duration, error) {
	cost, err := c.ensureFresh(tc)
	if err != nil {
		return core.Manifest{}, cost, err
	}
	m, err := c.env.Exec.ReadBulk(tc, c.env.Store, path, off, n, fn)
	return m, cost, err
}

func (c *CacheReplica) Close() error {
	c.env.Disp.Unregister(c.env.OID)
	if c.mode == ModeInvalidate {
		c.cacheMu.Lock()
		subscribed := c.subscribedAt
		c.cacheMu.Unlock()
		if subscribed != "" {
			c.unsubscribeFrom(subscribed, c.env.Disp.Addr())
		}
	}
	return nil
}

// drop discards the local copy.
func (c *CacheReplica) drop() {
	c.cacheMu.Lock()
	c.haveState = false
	c.cacheMu.Unlock()
}

// followParent moves the invalidation subscription to the parent that
// actually served the latest fill: invalidations for the state we now
// hold must come from where it came from. Called with cacheMu held.
func (c *CacheReplica) followParent(servedBy string) {
	if c.mode != ModeInvalidate || servedBy == "" || servedBy == c.subscribedAt {
		return
	}
	if err := c.subscribeTo(servedBy, c.env.Disp.Addr(), RoleCache); err != nil {
		c.env.Logf("repl: %s: re-subscribe at %s: %v", Cache, servedBy, err)
		return
	}
	if c.subscribedAt != "" {
		c.unsubscribeFrom(c.subscribedAt, c.env.Disp.Addr())
	}
	c.subscribedAt = servedBy
}

// ensureFresh guarantees the local copy is usable under the configured
// coherence mode, fetching or revalidating as needed — against the
// best-ranked live parent, not a bind-time pin.
func (c *CacheReplica) ensureFresh(tc obs.SpanContext) (time.Duration, error) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()

	now := c.env.Now()
	if c.haveState {
		stale := now.Sub(c.fetchedAt) >= c.ttl
		if c.mode == ModeInvalidate {
			// Valid until invalidated — unless a subscription lease is
			// configured and has run out, in which case the copy is only
			// trusted after the subscription is confirmed still alive.
			stale = c.resub > 0 && now.Sub(c.checkedAt) >= c.resub
		}
		if !stale {
			c.stats.Hits++
			mCacheHits.Inc()
			return 0, nil
		}
		// TTL (or subscription lease) expired: revalidate against a
		// parent by version.
		servedBy, fresh, version, state, pins, cost, err := c.fetchStateVia(tc, c.parents, c.currentVersion())
		if err != nil {
			if c.mode == ModeInvalidate {
				// No parent reachable to confirm the subscription. Keep
				// serving the local copy — availability through a
				// partition is the documented invalidate-mode trade-off —
				// and check again one lease from now rather than paying a
				// failed fetch on every read.
				c.checkedAt = now
				c.stats.Hits++
				mCacheHits.Inc()
				c.env.Logf("repl: %s: subscription check failed, serving cached copy: %v", Cache, err)
				return cost, nil
			}
			return cost, fmt.Errorf("repl: %s: revalidate: %w", Cache, err)
		}
		c.fetchedAt = now
		if c.mode == ModeInvalidate {
			// Re-subscribe even at an unchanged parent: it may have
			// restarted (or been healed back) having forgotten its
			// subscriber table, and subscribing is idempotent.
			c.resubscribe(servedBy)
			c.checkedAt = now
		} else {
			c.followParent(servedBy)
		}
		if fresh {
			c.releasePins(pins)
			c.stats.Revalidations++
			mCacheRevalidations.Inc()
			return cost, nil
		}
		err = c.env.Exec.UnmarshalState(state)
		c.releasePins(pins)
		if err != nil {
			return cost, err
		}
		c.setVersion(version)
		c.stats.Misses++
		mCacheMisses.Inc()
		return cost, nil
	}

	servedBy, _, version, state, pins, cost, err := c.fetchStateVia(tc, c.parents, 0)
	if err != nil {
		return cost, fmt.Errorf("repl: %s: fill: %w", Cache, err)
	}
	err = c.env.Exec.UnmarshalState(state)
	c.releasePins(pins)
	if err != nil {
		return cost, err
	}
	c.followParent(servedBy)
	c.setVersion(version)
	c.haveState = true
	c.fetchedAt = now
	if c.mode == ModeInvalidate {
		c.checkedAt = now
	}
	c.stats.Misses++
	mCacheMisses.Inc()
	return cost, nil
}

// resubscribe re-issues the invalidation subscription after its lease
// ran out — even at an unchanged parent, which may have restarted and
// forgotten its subscribers. Called with cacheMu held.
func (c *CacheReplica) resubscribe(servedBy string) {
	if servedBy == "" {
		servedBy = c.subscribedAt
	}
	if servedBy == "" {
		return
	}
	if err := c.subscribeTo(servedBy, c.env.Disp.Addr(), RoleCache); err != nil {
		c.env.Logf("repl: %s: re-subscribe at %s: %v", Cache, servedBy, err)
		return
	}
	if c.subscribedAt != "" && c.subscribedAt != servedBy {
		c.unsubscribeFrom(c.subscribedAt, c.env.Disp.Addr())
	}
	c.subscribedAt = servedBy
}

func (c *CacheReplica) handle(call *rpc.Call) ([]byte, error) {
	// Negotiated writes read and feed the parent chain's store, never
	// the cache's own (a chunk banked here would be invisible to the
	// manifest write upstream). Forward both negotiation ops to the
	// currently preferred parent; one that is itself a slave relays
	// onward to the master.
	if call.Op == core.OpChunkHave || call.Op == core.OpChunkPut {
		upstream, ok := c.parents.PickAddr(true)
		if !ok {
			return nil, fmt.Errorf("repl: %s: no parent to relay chunk ops to", Cache)
		}
		if handled, resp, err := c.relayChunkOps(call, upstream); handled {
			return resp, err
		}
	}
	if call.Op == core.OpBulkRead {
		// A registered cache serves streamed reads to other clients;
		// fill or revalidate before the base handler reads local state.
		cost, err := c.ensureFresh(call.TC)
		call.Charge(cost)
		if err != nil {
			return nil, err
		}
	}
	if call.Op == core.OpStateGet {
		// A cache may seed another representative (a peer cache that
		// re-parented here), but only from state it actually holds: a
		// cold cache answering version-0 empty state would be installed
		// as a successful fill — silent wrong data. Refusing instead
		// makes the peer walk on to a live candidate or fail loudly.
		// Filling here on demand is not an option: two caches orphaned
		// together would recurse into each other forever.
		c.cacheMu.Lock()
		have := c.haveState
		c.cacheMu.Unlock()
		if !have {
			return nil, fmt.Errorf("repl: %s for %s: cold cache cannot seed a peer", Cache, c.env.OID.Short())
		}
	}
	if handled, resp, err := c.handleCommon(call); handled {
		return resp, err
	}
	switch call.Op {
	case core.OpInvoke:
		inv, err := core.DecodeInvocation(call.Body)
		if err != nil {
			return nil, err
		}
		if inv.Write {
			if err := authorizeWrite(c.env, call); err != nil {
				return nil, err
			}
		}
		resp, cost, err := c.Invoke(inv)
		call.Charge(cost)
		return resp, err
	case core.OpInvalidate:
		if err := authorizeWrite(c.env, call); err != nil {
			return nil, err
		}
		c.cacheMu.Lock()
		c.haveState = false
		c.stats.Invalidations++
		c.cacheMu.Unlock()
		mInvalidations.Inc()
		return nil, nil
	default:
		return nil, fmt.Errorf("repl: %s: unexpected op %d", Cache, call.Op)
	}
}
