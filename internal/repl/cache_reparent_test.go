package repl

import (
	"testing"
	"time"

	"gdn/internal/gls"
	"gdn/internal/ids"
)

// Cache re-parenting: the cache protocol's upstream is a ranked peer
// set, not a bind-time pin — when the parent it has been filling from
// dies, the next fill walks the ranking to a live one.

func TestCacheFailsOverToAnotherParent(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	master, masterCA := f.replica(oid, "origin", MasterSlave, RoleMaster, nil, nil)
	_, slaveCA := f.replica(oid, "eu-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})

	cacheLR, _ := f.replica(oid, "us-client", Cache, RoleCache,
		map[string]string{"ttl": "10s"}, []gls.ContactAddress{masterCA, slaveCA})
	cache := cacheRepl(t, cacheLR)

	mustSet(t, master, "k", "v1")
	if val, _ := mustGet(t, cacheLR, "k"); val != "v1" {
		t.Fatalf("fill read = %q", val)
	}
	// The preferred parent is the slave (state-holding, nearest role
	// rank); it dies, and the master keeps writing.
	f.net.SetDown("eu-client", true)
	mustSet(t, master, "k", "v2")

	// Past the TTL the revalidation cannot reach the dead slave; the
	// old pinned-parent cache 502'd here. The peer set walks on to the
	// master and the cache serves the fresh value.
	f.clock.Advance(11 * time.Second)
	if val, _ := mustGet(t, cacheLR, "k"); val != "v2" {
		t.Fatalf("read after parent death = %q, want v2 via the surviving parent", val)
	}
	if cache.Parent() == slaveCA.Address {
		t.Fatal("dead slave must not stay the preferred parent")
	}
}

func TestColdCacheRefusesToSeedPeers(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	server, serverCA := f.replica(oid, "origin", ClientServer, RoleServer, nil, nil)
	mustSet(t, server, "k", "v1")
	cache1LR, cache1CA := f.replica(oid, "eu-client", Cache, RoleCache, nil, []gls.ContactAddress{serverCA})

	// A second cache whose only parent candidate is the first cache —
	// which has never filled. The fill must fail loudly, not install
	// the cold cache's empty state as a success.
	cache2LR, _ := f.replica(oid, "us-client", Cache, RoleCache, nil, []gls.ContactAddress{cache1CA})
	if _, _, err := cache2LR.Invoke("get", false, getArgs("k")); err == nil {
		t.Fatal("fill from a cold cache must fail, not serve empty state")
	}

	// Once the parent cache holds state, the chained fill works and
	// serves the real value.
	if val, _ := mustGet(t, cache1LR, "k"); val != "v1" {
		t.Fatalf("parent cache fill = %q", val)
	}
	if val, _ := mustGet(t, cache2LR, "k"); val != "v1" {
		t.Fatalf("chained cache fill = %q, want v1", val)
	}
}

func TestInvalidateModeCacheParentsAtInvalidationSource(t *testing.T) {
	f := newFixture(t, nil)
	oid := ids.New()
	master, masterCA := f.replica(oid, "origin", MasterSlave, RoleMaster, nil, nil)
	_, slaveCA := f.replica(oid, "eu-client", MasterSlave, RoleSlave, nil, []gls.ContactAddress{masterCA})

	cacheLR, _ := f.replica(oid, "us-client", Cache, RoleCache,
		map[string]string{"mode": "invalidate"}, []gls.ContactAddress{slaveCA, masterCA})
	cache := cacheRepl(t, cacheLR)

	// Invalidation-mode caches must parent where invalidations
	// originate: only the master pushes OpInvalidate to its cache
	// subscribers — a slave never relays it, and a cache subscribed
	// there would serve stale state forever.
	cache.cacheMu.Lock()
	subscribed := cache.subscribedAt
	cache.cacheMu.Unlock()
	if subscribed != masterCA.Address {
		t.Fatalf("invalidate-mode cache subscribed at %q, want the master %q", subscribed, masterCA.Address)
	}

	mustSet(t, master, "k", "v1")
	if val, _ := mustGet(t, cacheLR, "k"); val != "v1" {
		t.Fatalf("fill read = %q", val)
	}

	// The slave dying is irrelevant to the cache's coherence: writes
	// through the cache reach the master, and master writes invalidate
	// the copy — no TTL, no staleness window.
	f.net.SetDown("eu-client", true)
	if _, _, err := cacheLR.Invoke("set", true, setArgs("k", "v2")); err != nil {
		t.Fatalf("write-through with dead slave: %v", err)
	}
	if val, _ := mustGet(t, cacheLR, "k"); val != "v2" {
		t.Fatalf("refill read = %q", val)
	}
	mustSet(t, master, "k", "v3")
	if val, _ := mustGet(t, cacheLR, "k"); val != "v3" {
		t.Fatalf("read after invalidation = %q, want v3", val)
	}
	if got := cache.Stats().Invalidations; got == 0 {
		t.Fatal("cache never received an invalidation")
	}
}
