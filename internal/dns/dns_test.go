package dns

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gdn/internal/netsim"
	"gdn/internal/obs"
)

func TestCanonicalAndValidNames(t *testing.T) {
	cases := []struct {
		in    string
		canon string
		valid bool
	}{
		{"WWW.CS.VU.NL.", "www.cs.vu.nl", true},
		{"", "", true},
		{".", "", true},
		{"a..b", "a..b", false},
		{strings.Repeat("x", 64) + ".nl", strings.Repeat("x", 64) + ".nl", false},
		{"gimp.gdn.cs.vu.nl", "gimp.gdn.cs.vu.nl", true},
	}
	for _, c := range cases {
		got := CanonicalName(c.in)
		if got != c.canon {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.canon)
		}
		if ValidName(got) != c.valid {
			t.Errorf("ValidName(%q) = %v, want %v", got, !c.valid, c.valid)
		}
	}
}

func TestInZone(t *testing.T) {
	cases := []struct {
		name, zone string
		want       bool
	}{
		{"gimp.gdn.cs.vu.nl", "gdn.cs.vu.nl", true},
		{"gdn.cs.vu.nl", "gdn.cs.vu.nl", true},
		{"cs.vu.nl", "gdn.cs.vu.nl", false},
		{"evilgdn.cs.vu.nl", "gdn.cs.vu.nl", false},
		{"anything.at.all", "", true},
	}
	for _, c := range cases {
		if got := InZone(c.name, c.zone); got != c.want {
			t.Errorf("InZone(%q, %q) = %v, want %v", c.name, c.zone, got, c.want)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:            4242,
		Response:      true,
		Opcode:        OpcodeQuery,
		Authoritative: true,
		RCode:         RCodeOK,
		Questions:     []Question{{Name: "gimp.gdn.cs.vu.nl", Type: TypeTXT, Class: ClassIN}},
		Answers: []RR{
			{Name: "gimp.gdn.cs.vu.nl", Type: TypeTXT, Class: ClassIN, TTL: 300, Data: "oid=cafebabe"},
		},
		Authority: []RR{
			{Name: "gdn.cs.vu.nl", Type: TypeNS, Class: ClassIN, TTL: 3600, Data: "ns1.gdn.cs.vu.nl"},
		},
		Additional: []RR{
			{Name: "ns1.gdn.cs.vu.nl", Type: TypeADDR, Class: ClassIN, TTL: 3600, Data: "eu-nl-vu:dns"},
		},
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
	}
}

func TestNameCompressionShrinksMessages(t *testing.T) {
	// Four records sharing a long suffix must encode smaller than four
	// copies of the full name.
	m := &Message{Questions: []Question{{Name: "a.very.long.zone.example", Type: TypeTXT, Class: ClassIN}}}
	for _, label := range []string{"b", "c", "d"} {
		m.Answers = append(m.Answers, RR{
			Name: label + ".very.long.zone.example", Type: TypeTXT, Class: ClassIN, TTL: 1, Data: "x",
		})
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	uncompressed := len("a.very.long.zone.example") * 4
	if len(b) >= uncompressed+12+4*12 {
		t.Fatalf("compression ineffective: %d bytes", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[2].Name != "d.very.long.zone.example" {
		t.Fatalf("decompressed name = %q", got.Answers[2].Name)
	}
}

func TestDecodeRejectsPointerLoops(t *testing.T) {
	// Hand-craft a message whose name is a self-referencing pointer.
	b := make([]byte, 16)
	b[5] = 1 // QDCOUNT = 1
	b[12] = 0xC0
	b[13] = 12 // pointer to itself
	if _, err := Decode(b); err == nil {
		t.Fatal("self-referencing compression pointer must fail")
	}
}

// nameOverPointer is a query whose first name takes the whole 255-byte
// wire bound and whose second is a 3-label prefix plus a pointer to the
// first: each run of labels fits the bound, but the second name is 383
// bytes of text.
func nameOverPointer() []byte {
	b := []byte{0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0} // QDCOUNT = 2
	label := func(c byte, n int) {
		b = append(b, byte(n))
		b = append(b, bytes.Repeat([]byte{c}, n)...)
	}
	for i, n := range []int{63, 63, 63, 61} {
		label('a'+byte(i), n)
	}
	b = append(b, 0, 0, byte(TypeTXT), 0, 1)
	for i, n := range []int{43, 42, 42} {
		label('x'+byte(i), n)
	}
	return append(b, 0xC0, 12, 0, byte(TypeTXT), 0, 1)
}

// TestDecodeBoundsNameAcrossPointers: Decode bounds a name at 255 wire
// bytes across its compression pointers, the bound Encode keeps, and
// the 383-byte name two pointer bytes used to decode into is refused.
func TestDecodeBoundsNameAcrossPointers(t *testing.T) {
	b := nameOverPointer()
	first := append([]byte(nil), b[:12+255+4]...)
	first[5] = 1
	m, err := Decode(first)
	if err != nil {
		t.Fatalf("the 255-byte name alone: %v", err)
	}
	name := m.Questions[0].Name
	if again, err := Encode(m); err != nil || !bytes.Equal(again, first) {
		t.Fatalf("the 255-byte name does not re-encode to itself: %v", err)
	}
	if _, err := Encode(&Message{Questions: []Question{{Name: "a" + name, Type: TypeTXT, Class: ClassIN}}}); err == nil {
		t.Fatal("Encode accepted a 256-byte name")
	}
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Decode of a 383-byte name through a pointer = %v, want the name bound", err)
	}
	// The same bytes are a FuzzDecode corpus seed.
	seed, err := os.ReadFile("testdata/fuzz/FuzzDecode/name-over-pointer")
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b); err != nil || string(seed) != want {
		t.Fatalf("corpus seed name-over-pointer is not this message (%v)", err)
	}
}

// TestDecodeBoundsLowercasedName: 'Ⱥ' lowercases to the longer 'ⱥ', so
// a name that fits the wire bound can decode past it; Decode refuses it
// as Encode would.
func TestDecodeBoundsLowercasedName(t *testing.T) {
	b := []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0} // QDCOUNT = 1
	for i := 0; i < 4; i++ {
		b = append(b, 62)
		b = append(b, bytes.Repeat([]byte("Ⱥ"), 31)...)
	}
	b = append(b, 0, 0, byte(TypeTXT), 0, 1)
	if _, err := Decode(b); err == nil {
		t.Fatal("Decode accepted a name that lowercases past 255 bytes")
	}
}

func TestDecodeFuzzSafety(t *testing.T) {
	// Decoding arbitrary bytes must never panic — servers face hostile
	// traffic (paper §6.1).
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rnd.Intn(120))
		rnd.Read(b)
		Decode(b) // outcome irrelevant; must not panic
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(id uint16, ttl uint32, data string) bool {
		if len(data) > 1000 {
			return true
		}
		m := &Message{
			ID:        id,
			Questions: []Question{{Name: "pkg.gdn.cs.vu.nl", Type: TypeTXT, Class: ClassIN}},
			Answers:   []RR{{Name: "pkg.gdn.cs.vu.nl", Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: data}},
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZoneAddLookupDelete(t *testing.T) {
	z := NewZone("gdn.cs.vu.nl")
	rr := RR{Name: "gimp.gdn.cs.vu.nl", Type: TypeTXT, TTL: 300, Data: "oid=1"}
	if err := z.Add(rr); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(rr); err != nil {
		t.Fatal(err)
	}
	if got := z.Lookup("GIMP.gdn.cs.vu.nl", TypeTXT); len(got) != 1 {
		t.Fatalf("lookup = %v, want 1 deduplicated record", got)
	}
	if err := z.Add(RR{Name: "other.example", Type: TypeTXT}); err == nil {
		t.Fatal("out-of-zone add must fail")
	}

	if err := z.Apply([]RR{{Name: "gimp.gdn.cs.vu.nl", Type: TypeTXT, Class: ClassANY}}); err != nil {
		t.Fatal(err)
	}
	if got := z.Lookup("gimp.gdn.cs.vu.nl", TypeTXT); len(got) != 0 {
		t.Fatalf("after delete: %v", got)
	}
	if z.Serial() != 1 {
		t.Fatalf("serial = %d, want 1", z.Serial())
	}
}

func TestZoneApplyClasses(t *testing.T) {
	z := NewZone("zone")
	adds := []RR{
		{Name: "n.zone", Type: TypeTXT, Class: ClassIN, TTL: 5, Data: "one"},
		{Name: "n.zone", Type: TypeTXT, Class: ClassIN, TTL: 5, Data: "two"},
	}
	if err := z.Apply(adds); err != nil {
		t.Fatal(err)
	}
	// Delete exact record "one"; "two" must remain.
	if err := z.Apply([]RR{{Name: "n.zone", Type: TypeTXT, Class: ClassNone, Data: "one"}}); err != nil {
		t.Fatal(err)
	}
	got := z.Lookup("n.zone", TypeTXT)
	if len(got) != 1 || got[0].Data != "two" {
		t.Fatalf("after exact delete: %v", got)
	}
	if err := z.Apply([]RR{{Name: "n.zone", Type: TypeANY, Class: ClassANY}}); err != nil {
		t.Fatal(err)
	}
	if z.nameExists("n.zone") {
		t.Fatal("name must vanish after delete-all")
	}
}

func TestTSIGSignVerify(t *testing.T) {
	secret := []byte("shared-secret")
	msg := NewUpdate("gdn.cs.vu.nl")
	AddInsert(msg, RR{Name: "p.gdn.cs.vu.nl", Type: TypeTXT, TTL: 60, Data: "oid=2"})
	if err := SignTSIG(msg, "na-key", secret, 1000); err != nil {
		t.Fatal(err)
	}

	lookup := func(name string) ([]byte, bool) {
		if name == "na-key" {
			return secret, true
		}
		return nil, false
	}
	key, stripped, err := VerifyTSIG(msg, lookup, 1000+TSIGFudge-1)
	if err != nil {
		t.Fatal(err)
	}
	if key != "na-key" {
		t.Fatalf("key = %q", key)
	}
	if len(stripped.Additional) != 0 {
		t.Fatal("tsig must be stripped")
	}

	// Outside the time window.
	if _, _, err := VerifyTSIG(msg, lookup, 1000+TSIGFudge+1); err == nil {
		t.Fatal("stale signature must fail")
	}
	// Wrong key.
	badLookup := func(string) ([]byte, bool) { return []byte("other"), true }
	if _, _, err := VerifyTSIG(msg, badLookup, 1000); err == nil {
		t.Fatal("wrong key must fail")
	}
	// Tampered content.
	tampered := *msg
	tampered.Authority = append([]RR(nil), msg.Authority...)
	tampered.Authority[0].Data = "oid=EVIL"
	if _, _, err := VerifyTSIG(&tampered, lookup, 1000); err == nil {
		t.Fatal("tampered update must fail")
	}
}

// dnsWorld starts a root server delegating "vu.nl" to a second server
// which hosts the GDN zone beneath it.
func dnsWorld(t testing.TB) (*netsim.Network, *Server, *Server, *Resolver) {
	t.Helper()
	net := netsim.New(nil)
	net.AddSite("root-site", "core", "core")
	net.AddSite("eu-nl-vu", "eu-nl", "eu")
	net.AddSite("us-client", "us-ca", "us")

	rootSrv, err := ServeDNS(net, "root-site:dns", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootSrv.Close() })
	rootZone := NewZone("")
	if err := rootZone.Add(RR{Name: "vu.nl", Type: TypeNS, TTL: 3600, Data: "ns1.vu.nl"}); err != nil {
		t.Fatal(err)
	}
	if err := rootZone.Add(RR{Name: "ns1.vu.nl", Type: TypeADDR, TTL: 3600, Data: "eu-nl-vu:dns"}); err != nil {
		t.Fatal(err)
	}
	rootSrv.AddZone(rootZone)

	vuSrv, err := ServeDNS(net, "eu-nl-vu:dns", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vuSrv.Close() })
	gdnZone := NewZone("gdn.cs.vu.nl")
	if err := gdnZone.Add(RR{Name: "gimp.gdn.cs.vu.nl", Type: TypeTXT, TTL: 300, Data: "oid=deadbeef"}); err != nil {
		t.Fatal(err)
	}
	vuSrv.AddZone(NewZone("vu.nl"))
	vuSrv.AddZone(gdnZone)

	res := NewResolver(net, "us-client", []string{"root-site:dns"})
	t.Cleanup(func() { res.Close() })
	return net, rootSrv, vuSrv, res
}

func TestIterativeResolutionFollowsReferral(t *testing.T) {
	_, rootSrv, vuSrv, res := dnsWorld(t)

	texts, result, err := res.QueryTXT("gimp.gdn.cs.vu.nl")
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) != 1 || texts[0] != "oid=deadbeef" {
		t.Fatalf("texts = %v", texts)
	}
	if result.Cost <= 0 {
		t.Fatal("resolution must report network cost")
	}
	if rootSrv.QueriesHandled() == 0 || vuSrv.QueriesHandled() == 0 {
		t.Fatal("both servers must have been consulted")
	}
}

func TestResolverCaching(t *testing.T) {
	_, _, _, res := dnsWorld(t)

	if _, r1, err := res.QueryTXT("gimp.gdn.cs.vu.nl"); err != nil || r1.FromCache {
		t.Fatalf("first query: err=%v fromCache=%v", err, r1.FromCache)
	}
	_, r2, err := res.QueryTXT("gimp.gdn.cs.vu.nl")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.FromCache || r2.Cost != 0 {
		t.Fatalf("second query must hit the cache: %+v", r2)
	}

	// TTL is 300s: after 301 virtual seconds the entry expires.
	res.Advance(301 * time.Second)
	_, r3, err := res.QueryTXT("gimp.gdn.cs.vu.nl")
	if err != nil {
		t.Fatal(err)
	}
	if r3.FromCache {
		t.Fatal("expired entry must not be served")
	}

	res.CacheEnabled = false
	res.FlushCache()
	before := res.QueriesSent()
	for i := 0; i < 3; i++ {
		if _, _, err := res.QueryTXT("gimp.gdn.cs.vu.nl"); err != nil {
			t.Fatal(err)
		}
	}
	if sent := res.QueriesSent() - before; sent < 3 {
		t.Fatalf("cache disabled: %d messages for 3 queries", sent)
	}
}

// TestResolverCacheIsBounded resolves ten times the cache cap in
// distinct names on a clock that never advances, as in a daemon: the
// cache keeps at most the cap, and the newest answer is still cached.
func TestResolverCacheIsBounded(t *testing.T) {
	_, _, _, res := dnsWorld(t)
	for i := 0; i < 10*maxCacheEntries; i++ {
		if _, err := res.Query(fmt.Sprintf("n%d.gdn.cs.vu.nl", i), TypeTXT); err != nil {
			t.Fatal(err)
		}
	}
	res.mu.Lock()
	n := len(res.cache)
	res.mu.Unlock()
	if n > maxCacheEntries {
		t.Fatalf("cache holds %d entries, cap is %d", n, maxCacheEntries)
	}
	r, err := res.Query(fmt.Sprintf("n%d.gdn.cs.vu.nl", 10*maxCacheEntries-1), TypeTXT)
	if err != nil || !r.FromCache {
		t.Fatalf("newest answer not cached: %+v, %v", r, err)
	}

	// Once entries expire, a full cache drops those first. The vu.nl
	// delegation's hour-long TTL outlives the negative answers, so it
	// stays beside the new answer.
	res.Advance(negativeTTL)
	if _, _, err := res.QueryTXT("gimp.gdn.cs.vu.nl"); err != nil {
		t.Fatal(err)
	}
	res.mu.Lock()
	n = len(res.cache)
	_, answer := res.cache[cacheKey{name: "gimp.gdn.cs.vu.nl", t: TypeTXT}]
	_, cut := res.cache[cacheKey{name: "vu.nl", cut: true}]
	res.mu.Unlock()
	if n != 2 || !answer || !cut {
		t.Fatalf("cache holds %d entries after every earlier answer expired (new answer %v, vu.nl delegation %v), want just those two",
			n, answer, cut)
	}
}

func TestNXDomainAndNodata(t *testing.T) {
	_, _, _, res := dnsWorld(t)

	r, err := res.Query("nosuch.gdn.cs.vu.nl", TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if r.RCode != RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", r.RCode)
	}

	// The name exists but has no ADDR records: NODATA (NOERROR, empty).
	r, err = res.Query("gimp.gdn.cs.vu.nl", TypeADDR)
	if err != nil {
		t.Fatal(err)
	}
	if r.RCode != RCodeOK || len(r.RRs) != 0 {
		t.Fatalf("nodata = %+v", r)
	}
}

func TestDynamicUpdateEndToEnd(t *testing.T) {
	_, _, vuSrv, res := dnsWorld(t)
	zone, _ := vuSrv.Zone("gdn.cs.vu.nl")
	secret := []byte("naming-authority-key")
	zone.AllowUpdate("na", secret)
	vuSrv.SetClock(func() int64 { return 5000 })

	// A properly signed update adds a name.
	up := NewUpdate("gdn.cs.vu.nl")
	AddInsert(up, RR{Name: "tetex.gdn.cs.vu.nl", Type: TypeTXT, TTL: 300, Data: "oid=feedface"})
	if err := SignTSIG(up, "na", secret, 5000); err != nil {
		t.Fatal(err)
	}
	resp, _, err := res.Send("eu-nl-vu:dns", up)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeOK {
		t.Fatalf("update rcode = %v", resp.RCode)
	}
	texts, _, err := res.QueryTXT("tetex.gdn.cs.vu.nl")
	if err != nil || len(texts) != 1 || texts[0] != "oid=feedface" {
		t.Fatalf("texts=%v err=%v", texts, err)
	}

	// An unsigned update is rejected.
	unsigned := NewUpdate("gdn.cs.vu.nl")
	AddInsert(unsigned, RR{Name: "evil.gdn.cs.vu.nl", Type: TypeTXT, TTL: 300, Data: "oid=0"})
	resp, _, err = res.Send("eu-nl-vu:dns", unsigned)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeBadSig {
		t.Fatalf("unsigned update rcode = %v, want BADSIG", resp.RCode)
	}

	// A forged signature is rejected.
	forged := NewUpdate("gdn.cs.vu.nl")
	AddInsert(forged, RR{Name: "evil.gdn.cs.vu.nl", Type: TypeTXT, TTL: 300, Data: "oid=0"})
	if err := SignTSIG(forged, "na", []byte("wrong"), 5000); err != nil {
		t.Fatal(err)
	}
	resp, _, err = res.Send("eu-nl-vu:dns", forged)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeBadSig {
		t.Fatalf("forged update rcode = %v, want BADSIG", resp.RCode)
	}
	if zone.nameExists("evil.gdn.cs.vu.nl") {
		t.Fatal("rejected updates must not change the zone")
	}
}

func TestBatchedUpdateIsOneTransaction(t *testing.T) {
	_, _, vuSrv, res := dnsWorld(t)
	zone, _ := vuSrv.Zone("gdn.cs.vu.nl")
	secret := []byte("k")
	zone.AllowUpdate("na", secret)
	vuSrv.SetClock(func() int64 { return 0 })

	up := NewUpdate("gdn.cs.vu.nl")
	for i := 0; i < 20; i++ {
		AddInsert(up, RR{
			Name: "pkg" + string(rune('a'+i)) + ".gdn.cs.vu.nl",
			Type: TypeTXT, TTL: 300, Data: "oid=x",
		})
	}
	if err := SignTSIG(up, "na", secret, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Send("eu-nl-vu:dns", up); err != nil {
		t.Fatal(err)
	}
	if got := zone.Serial(); got != 1 {
		t.Fatalf("serial = %d: a batch must be one transaction", got)
	}
	if got := vuSrv.UpdatesHandled(); got != 1 {
		t.Fatalf("updates handled = %d", got)
	}
}

func TestServerRefusesForeignNames(t *testing.T) {
	_, _, _, res := dnsWorld(t)
	// The vu server knows nothing about .com.
	resp, _, err := res.Send("eu-nl-vu:dns", &Message{
		Opcode:    OpcodeQuery,
		Questions: []Question{{Name: "example.com", Type: TypeTXT, Class: ClassIN}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeRefused {
		t.Fatalf("rcode = %v, want REFUSED", resp.RCode)
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	net := netsim.New(nil)
	net.AddSite("s", "d", "r")
	srv, err := ServeDNS(net, "s:dns", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res := NewResolver(net, "s", []string{"s:dns"})
	defer res.Close()
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		garbage := make([]byte, rnd.Intn(64))
		rnd.Read(garbage)
		// Raw call below the Message layer.
		respBody, _, err := resolverRawCall(res, "s:dns", garbage)
		if err != nil {
			t.Fatalf("server must answer garbage, got transport error: %v", err)
		}
		if resp, err := Decode(respBody); err == nil && resp.RCode == RCodeOK && len(garbage) > 0 {
			// Tolerated: some garbage happens to be a valid empty query.
			_ = resp
		}
	}
}

// resolverRawCall sends raw bytes as the DNS op, bypassing Encode.
func resolverRawCall(r *Resolver, addr string, body []byte) ([]byte, time.Duration, error) {
	return r.clients.Get(addr).Call(obs.SpanContext{}, OpDNS, body)
}
