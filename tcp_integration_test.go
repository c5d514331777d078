package gdn_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gdn/internal/core"
	"gdn/internal/daemon"
	"gdn/internal/dns"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/gos"
	"gdn/internal/httpd"
	"gdn/internal/modtool"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/transport"
)

// freeAddr reserves a localhost TCP address for a service.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// tcpStack is the complete GDN — location service, DNS, naming
// authority and two object servers — on real localhost TCP sockets,
// assembled exactly as the cmd/ daemons assemble it. Runtimes made by
// newRuntime are closed with the test, like every service.
type tcpStack struct {
	t          *testing.T
	leafA      string
	leafB      string
	naAddr     string
	gosCmds    []string
	newRuntime func(leaf string) (*core.Runtime, func())
}

func startTCPStack(t *testing.T) *tcpStack {
	tcp := transport.TCP{}
	st := &tcpStack{t: t}

	// --- location service: root → region → two leaves ---------------
	rootAddr := freeAddr(t)
	euAddr := freeAddr(t)
	st.leafA = freeAddr(t)
	st.leafB = freeAddr(t)

	startNode := func(domain, addr string, parent []string) *gls.Node {
		node, err := gls.Start(tcp, gls.Config{
			Domain: domain, Site: "local", Addr: addr,
			Self:   gls.Ref{Addrs: []string{addr}},
			Parent: gls.Ref{Addrs: parent},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}
	startNode("root", rootAddr, nil)
	startNode("eu", euAddr, []string{rootAddr})
	startNode("eu/a", st.leafA, []string{euAddr})
	startNode("eu/b", st.leafB, []string{euAddr})

	// --- DNS: root server delegating the GDN zone -------------------
	const zoneName = "gdn.test"
	secret := []byte("tcp-test-secret")
	rootDNSAddr := freeAddr(t)
	zoneDNSAddr := freeAddr(t)

	rootDNS, err := dns.ServeDNS(tcp, rootDNSAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootDNS.Close() })
	rootZone := dns.NewZone("")
	if err := rootZone.Add(dns.RR{Name: zoneName, Type: dns.TypeNS, TTL: 60, Data: "ns1." + zoneName}); err != nil {
		t.Fatal(err)
	}
	if err := rootZone.Add(dns.RR{Name: "ns1." + zoneName, Type: dns.TypeADDR, TTL: 60, Data: zoneDNSAddr}); err != nil {
		t.Fatal(err)
	}
	rootDNS.AddZone(rootZone)

	zoneDNS, err := dns.ServeDNS(tcp, zoneDNSAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { zoneDNS.Close() })
	zone := dns.NewZone(zoneName)
	zone.AllowUpdate("na-key", secret)
	zoneDNS.AddZone(zone)

	st.naAddr = freeAddr(t)
	authority, err := gns.StartAuthority(tcp, gns.AuthorityConfig{
		Zone: zoneName, Site: "local", Addr: st.naAddr,
		Servers: []string{zoneDNSAddr},
		TSIGKey: "na-key", TSIGSecret: secret,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { authority.Close() })

	// --- runtimes and object servers ---------------------------------
	st.newRuntime = func(leaf string) (*core.Runtime, func()) {
		res := gls.NewResolver(tcp, "local", gls.Ref{Addrs: []string{leaf}})
		dnsRes := dns.NewResolver(tcp, "local", []string{rootDNSAddr})
		rt := core.NewRuntime(core.RuntimeConfig{
			Site: "local", Net: tcp,
			Resolver: res,
			Names:    gns.NewNameService(dnsRes, zoneName),
			Registry: daemon.Registry(),
		})
		closeAll := func() { rt.Close(); res.Close(); dnsRes.Close() }
		t.Cleanup(closeAll)
		return rt, closeAll
	}

	for _, leaf := range []string{st.leafA, st.leafB} {
		cmdAddr := freeAddr(t)
		objAddr := freeAddr(t)
		rt, _ := st.newRuntime(leaf)
		srv, err := gos.Start(tcp, gos.Config{
			Site: "local", CmdAddr: cmdAddr, ObjAddr: objAddr,
			Runtime: rt,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		st.gosCmds = append(st.gosCmds, cmdAddr)
	}
	return st
}

// moderator starts a moderator tool attached to leaf A. shut closes
// the tool and its runtime; the test's cleanup does too.
func (st *tcpStack) moderator() (tool *modtool.Tool, shut func()) {
	rt, closeRT := st.newRuntime(st.leafA)
	tool, err := modtool.New(modtool.Config{
		Site: "local", Net: transport.TCP{},
		Runtime:         rt,
		NamingAuthority: st.naAddr,
	})
	if err != nil {
		st.t.Fatal(err)
	}
	shut = func() { tool.Close(); closeRT() }
	st.t.Cleanup(shut)
	return tool, shut
}

// TestFullStackOverTCP runs the paper's end-to-end flow on the TCP
// stack: publish, resolve, bind, download, verify, remove.
func TestFullStackOverTCP(t *testing.T) {
	st := startTCPStack(t)
	tool, _ := st.moderator()
	leafB, gosCmds := st.leafB, st.gosCmds
	newRuntime := func(leaf string) *core.Runtime {
		rt, _ := st.newRuntime(leaf)
		return rt
	}

	// --- moderator publishes a replicated package --------------------
	content := bytes.Repeat([]byte("tcp"), 100_000)
	if _, _, err := tool.CreatePackage("/apps/tcp-demo", core.Scenario{
		Protocol: "masterslave",
		Servers:  gosCmds,
	}, modtool.Package{
		Files: map[string][]byte{"demo.tar": content, "README": []byte("over real sockets")},
	}); err != nil {
		t.Fatal(err)
	}

	// --- a user binds by name and verifies ---------------------------
	userRT := newRuntime(leafB)
	lr, _, err := userRT.BindName("/apps/tcp-demo")
	if err != nil {
		t.Fatal(err)
	}
	stub := pkgobj.NewStub(lr)
	got, err := stub.GetFileContents("demo.tar")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch over TCP")
	}
	if err := stub.VerifyFile("demo.tar"); err != nil {
		t.Fatal(err)
	}
	lr.Close()

	// --- and through a real GDN-HTTPD --------------------------------
	h, err := httpd.New(httpd.Config{Runtime: newRuntime(leafB)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/pkg/apps/tcp-demo/-/demo.tar")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(body, content) {
		t.Fatalf("HTTP download over TCP failed: %d bytes, %v", len(body), err)
	}

	// --- teardown path ------------------------------------------------
	if _, err := tool.RemovePackage("/apps/tcp-demo"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := userRT.BindName("/apps/tcp-demo"); err == nil {
		t.Fatal("bind after removal must fail")
	}
}

// TestPublishCyclesReuseConnections: once a moderator and a user have
// gone through one create → bind → read → remove cycle, further cycles
// dial nothing. The moderator's object-server command clients, the
// user's bindings to the object servers and every resolver borrow
// their owner's shared connection per peer. Closing the owners
// (Runtime.Close, Tool.Close) leaves none of their connections' demux
// goroutines behind while the servers stay up.
func TestPublishCyclesReuseConnections(t *testing.T) {
	st := startTCPStack(t)
	scenario := core.Scenario{Protocol: "masterslave", Servers: st.gosCmds}
	content := bytes.Repeat([]byte("cycle"), 20_000)
	seq := 0
	cycle := func(tool *modtool.Tool, user *core.Runtime) {
		t.Helper()
		seq++
		name := fmt.Sprintf("/apps/cycle-%d", seq)
		if _, _, err := tool.CreatePackage(name, scenario, modtool.Package{
			Files: map[string][]byte{"cycle.bin": content},
		}); err != nil {
			t.Fatal(err)
		}
		lr, _, err := user.BindName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pkgobj.NewStub(lr).GetFileContents("cycle.bin")
		lr.Close()
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("read %s: %d bytes, %v", name, len(got), err)
		}
		if _, err := tool.RemovePackage(name); err != nil {
			t.Fatal(err)
		}
	}
	dials := func() int64 { return obs.Default.CounterValue(`gdn_rpc_dials_total{outcome="ok"}`) }
	// side runs a warm cycle and then cycles more from a fresh
	// moderator and user, checks the extra cycles dialed nothing, and
	// closes both.
	side := func(cycles int) {
		tool, closeTool := st.moderator()
		user, closeUser := st.newRuntime(st.leafB)
		cycle(tool, user)
		before := dials()
		for range cycles {
			cycle(tool, user)
		}
		if got := dials() - before; got != 0 {
			t.Errorf("%d warm publish cycles dialed %d connections, want 0", cycles, got)
		}
		closeTool()
		closeUser()
	}

	side(20)
	time.Sleep(100 * time.Millisecond)
	base := recvLoops()
	side(1)
	for deadline := time.Now().Add(5 * time.Second); recvLoops() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connection demux goroutines after closing a moderator and a user, %d before", recvLoops(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recvLoops counts the goroutines demultiplexing a client connection.
func recvLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "rpc.(*muxConn).recvLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestTCPFraming exercises the framed-conn layer directly: large
// frames, many frames, and the frame-size bound.
func TestTCPFraming(t *testing.T) {
	tcp := transport.TCP{}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type accepted struct {
		conn transport.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		acc <- accepted{c, err}
	}()
	client, err := tcp.Dial("", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	server := a.conn
	defer server.Close()

	// Many ordered frames of mixed sizes.
	sizes := []int{0, 1, 1024, 1 << 20, 3, 8 << 20}
	go func() {
		for i, n := range sizes {
			buf := bytes.Repeat([]byte{byte(i + 1)}, n)
			if err := client.Send(buf); err != nil {
				return
			}
		}
	}()
	for i, n := range sizes {
		got, _, err := server.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != n {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), n)
		}
		if n > 0 && (got[0] != byte(i+1) || got[n-1] != byte(i+1)) {
			t.Fatalf("frame %d corrupted", i)
		}
	}

	// Oversized frames are refused at the sender.
	if err := client.Send(make([]byte, transport.MaxFrame+1)); err == nil {
		t.Fatal("oversized frame must be refused")
	}
}
