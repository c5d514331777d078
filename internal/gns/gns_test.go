package gns

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"gdn/internal/dns"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/sec"
)

func TestNameToDNSAndBack(t *testing.T) {
	cases := []struct {
		object string
		zone   string
		dns    string
	}{
		{"/apps/graphics/gimp", "gdn.cs.vu.nl", "gimp.graphics.apps.gdn.cs.vu.nl"},
		{"/nl/vu/cs/globe/somepackage", "", "somepackage.globe.cs.vu.nl"},
		{"/apps", "gdn.cs.vu.nl", "apps.gdn.cs.vu.nl"},
		{"/", "gdn.cs.vu.nl", "gdn.cs.vu.nl"},
	}
	for _, c := range cases {
		got, err := NameToDNS(c.object, c.zone)
		if err != nil {
			t.Fatalf("NameToDNS(%q): %v", c.object, err)
		}
		if got != c.dns {
			t.Errorf("NameToDNS(%q, %q) = %q, want %q", c.object, c.zone, got, c.dns)
		}
		back, err := DNSToName(got, c.zone)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.ToLower(c.object)
		if back != want {
			t.Errorf("DNSToName(%q) = %q, want %q", got, back, want)
		}
	}
}

func TestNameValidation(t *testing.T) {
	bad := []string{"apps/gimp", "/apps//gimp", "/apps/Gi mp", "/-bad", "/" + strings.Repeat("x", 64)}
	for _, name := range bad {
		if _, err := NameToDNS(name, "zone"); err == nil {
			t.Errorf("NameToDNS(%q) must fail", name)
		}
	}
	// Upper case is folded, mirroring DNS case-insensitivity.
	got, err := NameToDNS("/Apps/Graphics/Gimp", "zone")
	if err != nil || got != "gimp.graphics.apps.zone" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestParentDirs(t *testing.T) {
	var dirs []string
	for name := "/apps/graphics/gimp"; name != "/"; {
		name = parentDir(name)
		dirs = append(dirs, name)
	}
	want := []string{"/apps/graphics", "/apps", "/"}
	if len(dirs) != len(want) {
		t.Fatalf("dirs = %v", dirs)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("dirs = %v, want %v", dirs, want)
		}
	}
}

func TestOIDRecordRoundTrip(t *testing.T) {
	f := func(seed string) bool {
		oid := ids.Derive(seed)
		got, ok := DecodeOIDRecord(EncodeOIDRecord(oid))
		return ok && got == oid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeOIDRecord("entry=foo"); ok {
		t.Fatal("entry record must not parse as OID")
	}
	if _, ok := DecodeOIDRecord("globe-oid=nothex"); ok {
		t.Fatal("bad hex must not parse")
	}
}

// gnsWorld assembles a complete naming stack: two authoritative name
// servers for the GDN zone, a naming authority pushing signed updates
// to both, and a caching resolver for clients.
type gnsWorld struct {
	net       *netsim.Network
	servers   []*dns.Server
	zones     []*dns.Zone
	authority *Authority
	resolver  *dns.Resolver
	service   *NameService
	client    *Client
}

const testZone = "gdn.cs.vu.nl"

func newGNSWorld(t testing.TB, batchSize int, auth *sec.Config, clientAuth *sec.Config) *gnsWorld {
	t.Helper()
	net := netsim.New(nil)
	net.AddSite("ns1", "eu-nl", "eu")
	net.AddSite("ns2", "us-ca", "us")
	net.AddSite("na", "eu-nl", "eu")
	net.AddSite("client", "eu-de", "eu")

	w := &gnsWorld{net: net}
	secret := []byte("na-secret")
	for _, site := range []string{"ns1", "ns2"} {
		srv, err := dns.ServeDNS(net, site+":dns", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		zone := dns.NewZone(testZone)
		zone.AllowUpdate("na-key", secret)
		srv.AddZone(zone)
		srv.SetClock(func() int64 { return 0 })
		w.servers = append(w.servers, srv)
		w.zones = append(w.zones, zone)
	}

	authority, err := StartAuthority(net, AuthorityConfig{
		Zone:       testZone,
		Site:       "na",
		Addr:       "na:gns-authority",
		Servers:    []string{"ns1:dns", "ns2:dns"},
		TSIGKey:    "na-key",
		TSIGSecret: secret,
		BatchSize:  batchSize,
		Auth:       auth,
		Now:        func() int64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { authority.Close() })
	w.authority = authority

	w.resolver = dns.NewResolver(net, "client", []string{"ns1:dns", "ns2:dns"})
	t.Cleanup(func() { w.resolver.Close() })
	w.service = NewNameService(w.resolver, testZone)
	w.client = NewClient(net, "client", "na:gns-authority", clientAuth)
	t.Cleanup(func() { w.client.Close() })
	return w
}

func TestAddResolveRemove(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	oid := ids.Derive("gimp")

	if _, err := w.client.Add("/apps/graphics/Gimp", oid); err != nil {
		t.Fatal(err)
	}

	got, cost, err := w.service.Resolve("/apps/graphics/gimp")
	if err != nil {
		t.Fatal(err)
	}
	if got != oid {
		t.Fatalf("resolved %s, want %s", got, oid)
	}
	if cost <= 0 {
		t.Fatal("first resolution must cost network traffic")
	}

	// Both name servers received the update.
	for i, zone := range w.zones {
		if zone.Serial() == 0 {
			t.Fatalf("server %d never saw an update", i)
		}
	}

	if _, err := w.client.Remove("/apps/graphics/gimp"); err != nil {
		t.Fatal(err)
	}
	w.resolver.FlushCache()
	if _, _, err := w.service.Resolve("/apps/graphics/gimp"); err == nil {
		t.Fatal("resolve after remove must fail")
	}
}

func TestDuplicateAndMissingNames(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	oid := ids.Derive("x")
	if _, err := w.client.Add("/apps/x", oid); err != nil {
		t.Fatal(err)
	}
	if _, err := w.client.Add("/apps/x", ids.Derive("y")); err == nil {
		t.Fatal("duplicate add must fail")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := w.client.Remove("/apps/nope"); err == nil {
		t.Fatal("removing unknown name must fail")
	}
}

func TestMultipleNamesOneObject(t *testing.T) {
	// "A package is allowed to have more than one name so we can have
	// multiple classifications" (§5).
	w := newGNSWorld(t, 1, nil, nil)
	oid := ids.Derive("gimp")
	for _, name := range []string{"/apps/graphics/gimp", "/apps/photography/gimp"} {
		if _, err := w.client.Add(name, oid); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"/apps/graphics/gimp", "/apps/photography/gimp"} {
		got, _, err := w.service.Resolve(name)
		if err != nil || got != oid {
			t.Fatalf("resolve %s = %v, %v", name, got, err)
		}
	}
}

func TestDirectoryListing(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	names := []string{"/apps/graphics/gimp", "/apps/graphics/xv", "/apps/tex/tetex", "/os/linux/debian"}
	for _, n := range names {
		if _, err := w.client.Add(n, ids.Derive(n)); err != nil {
			t.Fatal(err)
		}
	}

	kids, _, err := w.service.List("/apps/graphics")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "gimp" || kids[1] != "xv" {
		t.Fatalf("graphics children = %v", kids)
	}
	kids, _, err = w.service.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "apps" || kids[1] != "os" {
		t.Fatalf("root children = %v", kids)
	}

	// Removing the only TeX package prunes /apps/tex from /apps but
	// keeps /apps itself (graphics is still there).
	if _, err := w.client.Remove("/apps/tex/tetex"); err != nil {
		t.Fatal(err)
	}
	w.resolver.FlushCache()
	kids, _, err = w.service.List("/apps")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0] != "graphics" {
		t.Fatalf("apps children after prune = %v", kids)
	}
}

func TestEntriesClassifyInOneRoundTrip(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	for _, n := range []string{"/apps/graphics/gimp", "/apps/tex"} {
		if _, err := w.client.Add(n, ids.Derive(n)); err != nil {
			t.Fatal(err)
		}
	}

	entries, _, err := w.service.Entries("/apps")
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{Name: "graphics", Package: false}, {Name: "tex", Package: true}}
	if len(entries) != 2 || entries[0] != want[0] || entries[1] != want[1] {
		t.Fatalf("entries = %v, want %v", entries, want)
	}
	// One TXT query classifies every child: no per-child Resolve.
	if qs := w.servers[0].QueriesHandled() + w.servers[1].QueriesHandled(); qs != 1 {
		t.Fatalf("entries listing issued %d DNS queries, want 1", qs)
	}

	// A directory that later becomes a package too flips its marker.
	if _, err := w.client.Add("/apps/graphics", ids.Derive("graphics-pkg")); err != nil {
		t.Fatal(err)
	}
	w.resolver.FlushCache()
	entries, _, err = w.service.Entries("/apps")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || !entries[0].Package {
		t.Fatalf("entries after dir-becomes-package = %v", entries)
	}

	// Removing the package (children remain) demotes it back to a
	// plain directory entry.
	if _, err := w.client.Remove("/apps/graphics"); err != nil {
		t.Fatal(err)
	}
	w.resolver.FlushCache()
	entries, _, err = w.service.Entries("/apps")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Package {
		t.Fatalf("entries after package removal = %v", entries)
	}
}

func TestUpdateBatching(t *testing.T) {
	w := newGNSWorld(t, 50, nil, nil)

	// 10 adds stage ~21 records (10 OIDs + 11 directory entries), under
	// the batch threshold: nothing sent yet.
	for i := 0; i < 10; i++ {
		name := "/apps/pkg-" + string(rune('a'+i))
		if _, err := w.client.Add(name, ids.Derive(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.authority.Flushes(); got != 0 {
		t.Fatalf("flushes = %d before threshold", got)
	}
	pending, err := w.client.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if pending == 0 {
		t.Fatal("updates must be staged")
	}
	if _, _, err := w.service.Resolve("/apps/pkg-a"); err == nil {
		t.Fatal("unflushed names must not resolve yet")
	}

	// An explicit flush delivers everything as one update message.
	if _, err := w.client.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := w.authority.Flushes(); got != 1 {
		t.Fatalf("flushes = %d after explicit flush", got)
	}
	if got := w.zones[0].Serial(); got != 1 {
		t.Fatalf("zone serial = %d: batch must be one transaction", got)
	}
	w.resolver.FlushCache()
	if _, _, err := w.service.Resolve("/apps/pkg-a"); err != nil {
		t.Fatal(err)
	}

	// Crossing the threshold flushes automatically.
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("/os/auto%d", i)
		if _, err := w.client.Add(name, ids.Derive(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.authority.Flushes(); got < 2 {
		t.Fatalf("flushes = %d, want automatic flush past threshold", got)
	}
}

func TestResolutionUsesResolverCache(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	oid := ids.Derive("gimp")
	if _, err := w.client.Add("/apps/gimp", oid); err != nil {
		t.Fatal(err)
	}
	if _, cost, err := w.service.Resolve("/apps/gimp"); err != nil || cost == 0 {
		t.Fatalf("first resolve: cost=%v err=%v", cost, err)
	}
	_, cost, err := w.service.Resolve("/apps/gimp")
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("cached resolve must be free, cost=%v", cost)
	}
}

func TestAuthorityAdmissionControl(t *testing.T) {
	ca, err := sec.NewAuthority("gdn-root")
	if err != nil {
		t.Fatal(err)
	}
	naCreds, err := sec.NewCredentials(ca, sec.Principal(sec.RoleGNS, "na"), sec.RoleGNS)
	if err != nil {
		t.Fatal(err)
	}
	modCreds, err := sec.NewCredentials(ca, sec.Principal(sec.RoleModerator, "alice"), sec.RoleModerator)
	if err != nil {
		t.Fatal(err)
	}
	userCreds, err := sec.NewCredentials(ca, sec.Principal(sec.RoleUser, "mallory"), sec.RoleUser)
	if err != nil {
		t.Fatal(err)
	}

	serverAuth := &sec.Config{Creds: naCreds, TrustAnchors: ca.Anchors(), RequireClientAuth: true}
	modAuth := &sec.Config{Creds: modCreds, TrustAnchors: ca.Anchors()}
	w := newGNSWorld(t, 1, serverAuth, modAuth)

	if _, err := w.client.Add("/apps/ok", ids.Derive("ok")); err != nil {
		t.Fatalf("moderator add: %v", err)
	}

	mallory := NewClient(w.net, "client", "na:gns-authority", &sec.Config{
		Creds:        userCreds,
		TrustAnchors: ca.Anchors(),
	})
	defer mallory.Close()
	if _, err := mallory.Add("/apps/evil", ids.Derive("evil")); err == nil {
		t.Fatal("user add must be rejected")
	}
	if _, err := mallory.Remove("/apps/ok"); err == nil {
		t.Fatal("user remove must be rejected")
	}

	// Resolution needs no credentials at all: reads go through plain DNS.
	if _, _, err := w.service.Resolve("/apps/ok"); err != nil {
		t.Fatalf("anonymous resolve: %v", err)
	}
}

// startAuthority starts a second authority in w at addr, keeping its
// name table in stateDir ("" for memory only).
func startAuthority(w *gnsWorld, addr, zone, stateDir string) (*Authority, error) {
	return StartAuthority(w.net, AuthorityConfig{
		Zone: zone, Site: "na", Addr: addr,
		Servers: []string{"ns1:dns", "ns2:dns"},
		TSIGKey: "na-key", TSIGSecret: []byte("na-secret"),
		StateDir: stateDir,
		Now:      func() int64 { return 0 },
	})
}

// copyDir copies the files of src into a fresh directory: the on-disk
// state a kill -9 of a process writing src would leave.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAuthorityKillRestartResync: every Add and Remove the authority
// acknowledged is on disk at once. A second authority started on a copy
// of the live state directory (what kill -9 leaves) holds exactly the
// acknowledged names, and repopulates wiped name servers by itself.
func TestAuthorityKillRestartResync(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	live := t.TempDir()
	first, err := startAuthority(w, "na:gns-durable", testZone, live)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	cl := NewClient(w.net, "client", "na:gns-durable", nil)
	defer cl.Close()
	for _, n := range []string{"/apps/a", "/apps/b", "/os/c", "/apps/sub/d"} {
		if _, err := cl.Add(n, ids.Derive(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Remove("/apps/b"); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, live) // first is still running

	// Both name servers lose their zones.
	for _, srv := range w.servers {
		fresh := dns.NewZone(testZone)
		fresh.AllowUpdate("na-key", []byte("na-secret"))
		srv.AddZone(fresh)
	}
	restarted, err := startAuthority(w, "na:gns-restarted", testZone, crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	want := []string{"/apps/a", "/apps/sub/d", "/os/c"}
	if got := restarted.Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered names = %v, want %v", got, want)
	}

	w.resolver.FlushCache()
	var walked []string
	if _, err := w.service.Walk("/", func(name string, oid ids.OID) error {
		if oid != ids.Derive(name) {
			t.Errorf("%s resolves to %s", name, oid)
		}
		walked = append(walked, name)
		return nil
	}); err != nil {
		t.Fatalf("walk after resync: %v", err)
	}
	if fmt.Sprint(walked) != fmt.Sprint(want) {
		t.Fatalf("resynced zone walks %v, want %v", walked, want)
	}
	if _, _, err := w.service.Resolve("/apps/b"); err == nil {
		t.Fatal("a removed name came back")
	}

	// The restarted authority keeps persisting.
	rc := NewClient(w.net, "client", "na:gns-restarted", nil)
	defer rc.Close()
	if _, err := rc.Remove("/os/c"); err != nil {
		t.Fatal(err)
	}
	again, err := startAuthority(w, "na:gns-again", testZone, copyDir(t, crashed))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.Names(); fmt.Sprint(got) != "[/apps/a /apps/sub/d]" {
		t.Fatalf("names after a second restart = %v", got)
	}
}

// TestStartRejectsOtherZoneStateDir: a state directory written for one
// zone fails an authority for another zone and is left byte-identical.
func TestStartRejectsOtherZoneStateDir(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	dir := t.TempDir()
	a, err := startAuthority(w, "na:gns-durable", testZone, dir)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(w.net, "client", "na:gns-durable", nil)
	defer cl.Close()
	if _, err := cl.Add("/apps/x", ids.Derive("x")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	path := filepath.Join(dir, "names.log")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := startAuthority(w, "na:gns-other", "other.zone", dir); err == nil {
		other.Close()
		t.Fatal("start on another zone's state dir must fail")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("failed start changed the state file")
	}
}

// BenchmarkAuthorityAdd prices one acknowledged Add end to end (RPC,
// staging, a signed update to two name servers) with the name table in
// memory and in a StateDir, where each Add adds one table append and
// fsync.
func BenchmarkAuthorityAdd(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name, dir := "memory", ""
		if durable {
			name = "state-dir"
		}
		b.Run(name, func(b *testing.B) {
			if durable {
				dir = b.TempDir()
			}
			w := newGNSWorld(b, 1, nil, nil)
			a, err := startAuthority(w, "na:gns-bench", testZone, dir)
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			cl := NewClient(w.net, "client", "na:gns-bench", nil)
			defer cl.Close()
			oid := ids.Derive("bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Add(fmt.Sprintf("/bench/n%d", i), oid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestErrNotFoundPlumbing(t *testing.T) {
	w := newGNSWorld(t, 1, nil, nil)
	_, _, err := w.service.Resolve("/apps/ghost")
	if err == nil {
		t.Fatal("expected error")
	}
	// The DNS layer answers NXDOMAIN; the service surfaces an error the
	// caller can branch on without string matching.
	var isNX bool
	if strings.Contains(err.Error(), "NXDOMAIN") || errors.Is(err, ErrNotFound) {
		isNX = true
	}
	if !isNX {
		t.Fatalf("unexpected error shape: %v", err)
	}
}
