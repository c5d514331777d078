package experiments

import (
	"fmt"
	"time"

	"gdn"
	"gdn/internal/dns"
	"gdn/internal/gns"
	"gdn/internal/gos"
	"gdn/internal/ids"
	"gdn/internal/pkgobj"
)

// E10Admission scripts the attacks §6.1 requires the GDN to repel and
// reports whether each is rejected:
//
//   - only moderators may command object servers (requirement 1);
//   - only GDN object servers may register contact addresses
//     (requirement 2);
//   - only moderators may change the GDN zone through the naming
//     authority (requirement 3);
//   - only the naming authority's TSIG key may update the DNS zone;
//   - only authorized principals may modify package content.
//
// The final rows measure what admission costs: a remote read on a
// secured (integrity-protected, two-way authenticated) deployment
// versus an open one, in real CPU time per operation.
func E10Admission() *Table {
	t := &Table{
		ID:      "E10",
		Title:   "security admission: unauthorized paths are closed (§6.1)",
		Columns: []string{"attack / measurement", "result"},
	}

	top := gdn.DefaultTopology()
	top.Secure = true
	w := newWorld(top)
	defer w.Close()

	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		panic(err)
	}
	if _, _, err := mod.CreatePackage("/apps/target", gdn.Scenario{
		Protocol: gdn.ProtocolClientServer,
		Servers:  w.GOSAddrs("eu-nl-vu"),
	}, gdn.Package{Files: map[string][]byte{"bin": []byte("authentic")}}); err != nil {
		panic(err)
	}

	userAuth, err := w.Credentials("user", "mallory")
	if err != nil {
		panic(err)
	}

	record := func(attack string, rejected bool) {
		result := "rejected"
		if !rejected {
			result = "ACCEPTED (security hole)"
		}
		t.AddRow(attack, result)
	}

	// 1. A user tries to modify package content.
	stub, _, err := w.BindPackage("na-ny-cu", "/apps/target")
	if err != nil {
		panic(err)
	}
	defer stub.Close()
	record("user write to package replica", stub.AddFile("bin", []byte("trojan")) != nil)
	if data, err := stub.GetFileContents("bin"); err != nil || string(data) != "authentic" {
		record("content intact after attack", false)
	} else {
		record("content intact after attack", true)
	}

	// 2. A user commands an object server.
	userGOS := gos.NewClient(w.Net, "na-ny-cu", "eu-nl-vu:gos-cmd", userAuth)
	_, _, _, err = userGOS.CreateReplica(gos.CreateRequest{
		Impl: pkgobj.Impl, Protocol: gdn.ProtocolClientServer, Role: "server",
	})
	record("user create-replica at GOS", err != nil)
	userGOS.Close()

	// 3. A user registers a contact address directly in the GLS.
	userRes, err := w.GLSResolver("na-ny-cu", userAuth)
	if err != nil {
		panic(err)
	}
	_, _, err = userRes.OpenSession("evil:addr", time.Minute)
	record("user contact-address registration at GLS", err != nil)

	// 4. A user asks the naming authority to add a name.
	userNA := gns.NewClient(w.Net, "na-ny-cu", "hub:gns-authority", userAuth)
	_, err = userNA.Add("/apps/evil", ids.Derive("evil"))
	record("user name registration at naming authority", err != nil)
	userNA.Close()

	// 5. An unsigned dynamic update straight at a DNS server.
	zoneServer := w.RegionSites(w.Regions()[0])[0] + ":dns"
	dnsRes := w.DNSResolver("na-ny-cu")
	unsigned := dns.NewUpdate(w.Zone())
	dns.AddInsert(unsigned, dns.RR{Name: "evil." + w.Zone(), Type: dns.TypeTXT, TTL: 60, Data: "oid=0"})
	resp, _, err := dnsRes.Send(zoneServer, unsigned)
	record("unsigned DNS UPDATE at zone server", err == nil && resp.RCode != dns.RCodeOK)

	// 6. A forged TSIG (wrong key) dynamic update.
	forged := dns.NewUpdate(w.Zone())
	dns.AddInsert(forged, dns.RR{Name: "evil2." + w.Zone(), Type: dns.TypeTXT, TTL: 60, Data: "oid=0"})
	if err := dns.SignTSIG(forged, "na-key", []byte("guessed-secret"), time.Now().Unix()); err != nil {
		panic(err)
	}
	resp, _, err = dnsRes.Send(zoneServer, forged)
	record("forged-TSIG DNS UPDATE at zone server", err == nil && resp.RCode != dns.RCodeOK)

	// --- overhead: what admission costs ------------------------------
	secured := measureE10Read(w, "/apps/target")
	t.AddRow("secured remote read ns/op", fmt.Sprint(secured))

	open := func() int64 {
		ow := newWorld(gdn.DefaultTopology())
		defer ow.Close()
		omod, err := ow.Moderator("eu-nl-vu", "alice")
		if err != nil {
			panic(err)
		}
		if _, _, err := omod.CreatePackage("/apps/target", gdn.Scenario{
			Protocol: gdn.ProtocolClientServer,
			Servers:  ow.GOSAddrs("eu-nl-vu"),
		}, gdn.Package{Files: map[string][]byte{"bin": []byte("authentic")}}); err != nil {
			panic(err)
		}
		return measureE10Read(ow, "/apps/target")
	}()
	t.AddRow("open remote read ns/op", fmt.Sprint(open))
	t.AddRow("admission overhead", fmt.Sprintf("%.2fx", float64(secured)/float64(open)))
	return t
}

// measureE10Read times remote reads of the target package from another
// continent, returning real ns/op. A warmup pass fills connection
// pools and code caches so the secured and open deployments compare
// fairly.
func measureE10Read(w *gdn.World, name string) int64 {
	stub, _, err := w.BindPackage("ap-jp-ut", name)
	if err != nil {
		panic(err)
	}
	defer stub.Close()
	const iters = 300
	for i := 0; i < 100; i++ {
		if _, err := stub.GetFileContents("bin"); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := stub.GetFileContents("bin"); err != nil {
			panic(err)
		}
	}
	return time.Since(start).Nanoseconds() / iters
}
