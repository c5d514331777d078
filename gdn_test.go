package gdn_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gdn"
	"gdn/internal/netsim"
	"gdn/internal/pkgobj"
)

func newWorld(t *testing.T, top gdn.Topology) *gdn.World {
	t.Helper()
	w, err := gdn.NewWorld(top)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldEndToEnd(t *testing.T) {
	w := newWorld(t, gdn.DefaultTopology())

	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}

	// Publish a package replicated master/slave across three regions.
	scenario := gdn.Scenario{
		Protocol: gdn.ProtocolMasterSlave,
		Servers:  w.GOSAddrs("eu-nl-vu", "na-ca-ucb", "ap-jp-ut"),
	}
	content := bytes.Repeat([]byte("GNU "), 2500)
	oid, cost, err := mod.CreatePackage("/apps/compilers/gcc", scenario, gdn.Package{
		Files: map[string][]byte{
			"README":       []byte("The GNU Compiler Collection"),
			"gcc-2.95.tar": content,
		},
		Meta: map[string]string{"description": "GNU C compiler"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if oid.IsNil() || cost <= 0 {
		t.Fatalf("oid=%v cost=%v", oid, cost)
	}

	// Every site in the world can bind by name and download, and the
	// digest check passes everywhere.
	for _, site := range w.Sites() {
		stub, _, err := w.BindPackage(site, "/apps/compilers/gcc")
		if err != nil {
			t.Fatalf("%s: bind: %v", site, err)
		}
		data, err := stub.GetFileContents("gcc-2.95.tar")
		if err != nil {
			t.Fatalf("%s: download: %v", site, err)
		}
		if !bytes.Equal(data, content) {
			t.Fatalf("%s: content mismatch", site)
		}
		if err := stub.VerifyFile("README"); err != nil {
			t.Fatalf("%s: verify: %v", site, err)
		}
		stub.Close()
	}

	// Clients near a replica must download without wide-area traffic.
	stub, _, err := w.BindPackage("ap-jp-ut", "/apps/compilers/gcc")
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	if _, err := stub.GetFileContents("README"); err != nil {
		t.Fatal(err)
	}
	before := w.Net.Meter()
	if _, err := stub.GetFileContents("gcc-2.95.tar"); err != nil {
		t.Fatal(err)
	}
	diff := w.Net.Meter().Sub(before)
	if diff.Bytes[netsim.WideArea] != 0 {
		t.Fatalf("read near a replica crossed the wide area: %v", diff)
	}
}

func TestSecureWorldEndToEnd(t *testing.T) {
	top := gdn.DefaultTopology()
	top.Secure = true
	w := newWorld(t, top)

	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}
	scenario := gdn.Scenario{
		Protocol: gdn.ProtocolClientServer,
		Servers:  w.GOSAddrs("eu-nl-vu"),
	}
	// The source tarball spans several storage chunks with an unaligned
	// tail, so its download is a bulk stream of full-chunk records
	// through the secured channel.
	src := make([]byte, 3*pkgobj.DefaultChunkSize+4321)
	rand.New(rand.NewSource(17)).Read(src)
	if _, _, err := mod.CreatePackage("/apps/editors/vim", scenario, gdn.Package{
		Files: map[string][]byte{"vim.tar": []byte("vim content"), "vim-src.tar": src},
	}); err != nil {
		t.Fatal(err)
	}

	// An ordinary user reads fine...
	stub, _, err := w.BindPackage("na-ny-cu", "/apps/editors/vim")
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	if _, err := stub.GetFileContents("vim.tar"); err != nil {
		t.Fatalf("user read: %v", err)
	}
	h := sha256.New()
	if n, err := stub.ReadFileTo(h, "vim-src.tar"); err != nil || n != int64(len(src)) {
		t.Fatalf("secured bulk download: %d of %d bytes, %v", n, len(src), err)
	}
	if got, want := h.Sum(nil), sha256.Sum256(src); !bytes.Equal(got, want[:]) {
		t.Fatal("secured bulk download: SHA-256 mismatch")
	}
	// ...but cannot modify the package (paper §6.1).
	if err := stub.AddFile("trojan", []byte("evil")); err == nil {
		t.Fatal("user write must be rejected")
	} else if !strings.Contains(err.Error(), "not authorized") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

func TestWorldWithPartitionedRootAndBatching(t *testing.T) {
	top := gdn.DefaultTopology()
	top.RootSubnodes = 4
	top.GNSBatchSize = 100
	w := newWorld(t, top)

	mod, err := w.Moderator("eu-nl-vu", "alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("/apps/pkg%d", i)
		if _, _, err := mod.CreatePackage(name, gdn.Scenario{
			Protocol: gdn.ProtocolClientServer,
			Servers:  w.GOSAddrs("eu-nl-vu"),
		}, gdn.Package{Files: map[string][]byte{"f": []byte("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	// Names are not resolvable yet: the naming authority is batching.
	if _, _, err := w.BindPackage("na-ny-cu", "/apps/pkg0"); err == nil {
		t.Fatal("names must still be batched")
	}
	if w.Authority().Flushes() != 0 {
		t.Fatal("no flush expected yet")
	}
	// Force the batch out; names resolve. (A different site binds here:
	// the first site's resolver is still holding the NXDOMAIN answer in
	// its negative cache, exactly as real DNS would.)
	if err := w.Authority().ResyncZone(); err != nil {
		t.Fatal(err)
	}
	stub, _, err := w.BindPackage("eu-de-tu", "/apps/pkg0")
	if err != nil {
		t.Fatal(err)
	}
	stub.Close()
}

func TestWorldValidation(t *testing.T) {
	if _, err := gdn.NewWorld(gdn.Topology{}); err == nil {
		t.Fatal("empty topology must fail")
	}
	if _, err := gdn.NewWorld(gdn.Topology{Regions: map[string][]string{"eu": {}}}); err == nil {
		t.Fatal("region without sites must fail")
	}
}
