package dns

import (
	"fmt"
	"testing"

	"gdn/internal/netsim"
	"gdn/internal/rpc"
)

// queriesFor resolves name and returns the messages it sent.
func queriesFor(t testing.TB, res *Resolver, name string) int64 {
	t.Helper()
	before := res.QueriesSent()
	if _, err := res.Query(name, TypeTXT); err != nil {
		t.Fatal(err)
	}
	return res.QueriesSent() - before
}

// TestResolverCachesDelegations: the first cold name in a zone walks
// from the root (two messages), the second starts at the cached vu.nl
// cut (one), and without the cache every cold name walks again.
func TestResolverCachesDelegations(t *testing.T) {
	_, rootSrv, _, res := dnsWorld(t)
	if n := queriesFor(t, res, "a.gdn.cs.vu.nl"); n != 2 {
		t.Fatalf("first cold name: %d messages, want 2", n)
	}
	rootBefore := rootSrv.QueriesHandled()
	if n := queriesFor(t, res, "b.gdn.cs.vu.nl"); n != 1 {
		t.Fatalf("second cold name in the zone: %d messages, want 1", n)
	}
	if rootSrv.QueriesHandled() != rootBefore {
		t.Fatal("a name below a cached cut must not reach the root")
	}
	if hits := res.CacheHits(); hits != 0 {
		t.Fatalf("delegation hits counted as %d cache hits", hits)
	}

	_, _, _, off := dnsWorld(t)
	off.CacheEnabled = false
	for _, name := range []string{"a.gdn.cs.vu.nl", "b.gdn.cs.vu.nl"} {
		if n := queriesFor(t, off, name); n != 2 {
			t.Fatalf("cache off, %s: %d messages, want 2", name, n)
		}
	}
	off.mu.Lock()
	n := len(off.cache)
	off.mu.Unlock()
	if n != 0 {
		t.Fatalf("cache off holds %d entries", n)
	}
}

// TestEvictionKeepsZoneCuts fills the cache three times over with
// answers on a clock that never advances, as in a daemon: eviction
// drops answers, never the vu.nl cut, so every cold name after the
// first costs exactly one message.
func TestEvictionKeepsZoneCuts(t *testing.T) {
	_, _, _, res := dnsWorld(t)
	queriesFor(t, res, "warm.gdn.cs.vu.nl")
	before := res.QueriesSent()
	const names = 3 * maxCacheEntries
	for i := 0; i < names; i++ {
		if _, err := res.Query(fmt.Sprintf("n%d.gdn.cs.vu.nl", i), TypeTXT); err != nil {
			t.Fatal(err)
		}
	}
	if sent := res.QueriesSent() - before; sent != names {
		t.Fatalf("%d cold names below a cached cut sent %d messages, want one each", names, sent)
	}
	res.mu.Lock()
	n := len(res.cache)
	_, cut := res.cache[cacheKey{name: "vu.nl", cut: true}]
	res.mu.Unlock()
	if n != maxCacheEntries || !cut {
		t.Fatalf("full cache holds %d entries, vu.nl cut kept %v; want %d and true", n, cut, maxCacheEntries)
	}
}

// TestResolverDropsDeadCut moves the vu.nl servers to a new address
// after the resolver cached the cut: the next name fails at the cached
// server, falls back to the root, and succeeds; the cut it caches then
// points at the new server.
func TestResolverDropsDeadCut(t *testing.T) {
	net, rootSrv, vuSrv, res := dnsWorld(t)
	if _, err := res.Query("a.gdn.cs.vu.nl", TypeTXT); err != nil {
		t.Fatal(err)
	}

	net.AddSite("eu-nl-vu2", "eu-nl", "eu")
	moved, err := ServeDNS(net, "eu-nl-vu2:dns", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { moved.Close() })
	zone, _ := vuSrv.Zone("gdn.cs.vu.nl")
	moved.AddZone(zone)
	vuSrv.Close()
	rootZone, _ := rootSrv.Zone("")
	if err := rootZone.Apply([]RR{
		{Name: "ns1.vu.nl", Type: TypeADDR, Class: ClassANY},
		{Name: "ns1.vu.nl", Type: TypeADDR, Class: ClassIN, TTL: 3600, Data: "eu-nl-vu2:dns"},
	}); err != nil {
		t.Fatal(err)
	}

	texts, _, err := res.QueryTXT("gimp.gdn.cs.vu.nl")
	if err != nil {
		t.Fatalf("a dead cached cut must fall back to the roots: %v", err)
	}
	if len(texts) != 1 || texts[0] != "oid=deadbeef" {
		t.Fatalf("texts = %v", texts)
	}
	if n := queriesFor(t, res, "b.gdn.cs.vu.nl"); n != 1 {
		t.Fatalf("after the fallback: %d messages, want 1 from the re-cached cut", n)
	}
}

// referrer serves a fixed referral to cut, whose server ns has the
// address glue, for every query.
func referrer(t *testing.T, net *netsim.Network, addr, cut, ns, glue string) {
	t.Helper()
	srv, err := rpc.Serve(net, addr, func(call *rpc.Call) ([]byte, error) {
		msg, err := Decode(call.Body)
		if err != nil {
			return nil, err
		}
		resp := msg.Reply()
		resp.Authority = []RR{{Name: cut, Type: TypeNS, Class: ClassIN, TTL: 3600, Data: ns}}
		resp.Additional = []RR{{Name: ns, Type: TypeADDR, Class: ClassIN, TTL: 3600, Data: glue}}
		return Encode(resp)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
}

// TestResolverSkipsOutOfBailiwickCuts: the vu.nl server refers up to
// "nl", or across to a cut that does not contain the name. The
// resolver follows either referral to the answer but caches neither
// cut, nor any cut it is referred to after one.
func TestResolverSkipsOutOfBailiwickCuts(t *testing.T) {
	for _, cut := range []string{"nl", "other.example"} {
		t.Run(cut, func(t *testing.T) {
			net, rootSrv, _, _ := dnsWorld(t)
			net.AddSite("liar", "eu-nl", "eu")
			referrer(t, net, "liar:dns", cut, "ns.liar", "eu-nl-vu:dns")
			rootZone, _ := rootSrv.Zone("")
			if err := rootZone.Apply([]RR{
				{Name: "ns1.vu.nl", Type: TypeADDR, Class: ClassANY},
				{Name: "ns1.vu.nl", Type: TypeADDR, Class: ClassIN, TTL: 3600, Data: "liar:dns"},
			}); err != nil {
				t.Fatal(err)
			}
			res := NewResolver(net, "us-client", []string{"root-site:dns"})
			t.Cleanup(func() { res.Close() })

			texts, _, err := res.QueryTXT("gimp.gdn.cs.vu.nl")
			if err != nil || len(texts) != 1 || texts[0] != "oid=deadbeef" {
				t.Fatalf("texts=%v err=%v", texts, err)
			}
			res.mu.Lock()
			_, vu := res.cache[cacheKey{name: "vu.nl", cut: true}]
			_, bad := res.cache[cacheKey{name: cut, cut: true}]
			res.mu.Unlock()
			if !vu || bad {
				t.Fatalf("cached cuts: vu.nl %v, %s %v; want only vu.nl", vu, cut, bad)
			}
			if n := queriesFor(t, res, "b.gdn.cs.vu.nl"); n != 2 {
				t.Fatalf("second name: %d messages, want 2 (vu.nl, then the answer)", n)
			}
		})
	}
}

// TestDecodeAllocs guards the name codec: decoding a referral with glue
// costs the message, one slice per section and one string per name or
// text: 1 + 3 + 5 (the question, the NS owner and target, the glue
// owner and its address).
func TestDecodeAllocs(t *testing.T) {
	b, err := Encode(referral())
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { Decode(b) }); got > 9 {
		t.Fatalf("Decode of a referral: %v allocs, want <= 9", got)
	}
}

// referral is a typical referral: the root sending a query for a
// package name to the GDN zone's server.
func referral() *Message {
	return &Message{
		ID: 7, Response: true,
		Questions: []Question{{Name: "pkg0001.apps.gdn.cs.vu.nl", Type: TypeTXT, Class: ClassIN}},
		Authority: []RR{{Name: "gdn.cs.vu.nl", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: "ns1.gdn.cs.vu.nl"}},
		Additional: []RR{{Name: "ns1.gdn.cs.vu.nl", Type: TypeADDR, Class: ClassIN, TTL: 3600,
			Data: "eu-nl-vu:dns"}},
	}
}

// TestQueryTXTColdAllocs guards a cold name below a cached cut: one
// message out, one in, and the answer cached. The bound has headroom
// for the simulated network's own bookkeeping.
func TestQueryTXTColdAllocs(t *testing.T) {
	_, _, vuSrv, res := dnsWorld(t)
	zone, _ := vuSrv.Zone("gdn.cs.vu.nl")
	names := make([]string, 400)
	for i := range names {
		names[i] = fmt.Sprintf("n%d.gdn.cs.vu.nl", i)
		if err := zone.Add(RR{Name: names[i], Type: TypeTXT, TTL: 300, Data: "oid=cafe"}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	cold := func() {
		if texts, _, err := res.QueryTXT(names[i]); err != nil || len(texts) != 1 {
			t.Fatalf("%s: %v, %v", names[i], texts, err)
		}
		i++
	}
	cold() // cache the cut and warm the connection
	if got := testing.AllocsPerRun(300, cold); got > maxColdAllocs {
		t.Fatalf("QueryTXT of a cold name: %v allocs, want <= %d", got, maxColdAllocs)
	}
}

// maxColdAllocs bounds TestQueryTXTColdAllocs.
const maxColdAllocs = 34

// BenchmarkResolveCold resolves a new name in the zone each iteration,
// the moderator's and a binding user's common case: allocs/op and
// queries/op price one cold resolution below a cached cut, client and
// both servers together.
func BenchmarkResolveCold(b *testing.B) {
	_, _, _, res := dnsWorld(b)
	names := make([]string, b.N+1)
	for i := range names {
		names[i] = fmt.Sprintf("n%d.gdn.cs.vu.nl", i)
	}
	res.Query(names[b.N], TypeTXT) //nolint:errcheck // warms the cut
	before := res.QueriesSent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Query(names[i], TypeTXT); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.QueriesSent()-before)/float64(b.N), "queries/op")
}
