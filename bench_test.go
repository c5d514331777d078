// Benchmarks: one family per experiment of DESIGN.md §4 (E1-E10).
// Each benchmark exercises the operation its experiment measures, with
// deployment outside the timer. Two kinds of numbers appear: ns/op is
// real CPU time; the "virtual-ms/op" and "wan-KB/op" metrics are the
// simulated wide-area cost the experiments report (the shape a real
// deployment would show).
//
// Run with: go test -bench=. -benchmem
package gdn_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdn"
	"gdn/internal/core"
	"gdn/internal/experiments"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/gos"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/wire"
	"gdn/internal/workload"
)

// --- RPC core: multiplexed client --------------------------------------

// benchRPCParallel drives b.N echo calls through cl from `workers`
// concurrent goroutines — the contention shape of a busy HTTPD or GLS
// node fanning user requests into one upstream client.
func benchRPCParallel(b *testing.B, cl *rpc.Client, workers int) {
	b.Helper()
	body := make([]byte, 128)
	// Prime the connection outside the timer.
	if _, _, err := cl.Call(obs.SpanContext{}, 1, body); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / workers
	extra := b.N % workers
	for w := 0; w < workers; w++ {
		k := per
		if w < extra {
			k++
		}
		if k == 0 {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < k; i++ {
				if _, _, err := cl.Call(obs.SpanContext{}, 1, body); err != nil {
					b.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// benchRPCOverTCP serves an echo handler on loopback TCP so the numbers
// include real framing syscalls, then measures a client dialing it.
func benchRPCOverTCP(b *testing.B, workers int) {
	b.Helper()
	var tcp transport.TCP
	srv, err := rpc.Serve(tcp, "127.0.0.1:0", func(c *rpc.Call) ([]byte, error) {
		return c.Body, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl := rpc.NewClient(tcp, "", srv.Addr())
	b.Cleanup(func() { cl.Close() })
	benchRPCParallel(b, cl, workers)
}

// BenchmarkRPC_CallParallel is the headline mux number: 64 concurrent
// callers pipelining over one shared TCP connection. (The seed's
// checkout-per-call client measured ~2.6x slower here before it was
// retired; the numbers live in ROADMAP.md.)
func BenchmarkRPC_CallParallel(b *testing.B) {
	benchRPCOverTCP(b, 64)
}

// BenchmarkRPC_CallSequential tracks the single-caller latency floor —
// the mux must not tax callers that never pipeline.
func BenchmarkRPC_CallSequential(b *testing.B) {
	benchRPCOverTCP(b, 1)
}

// BenchmarkRPC_CallParallelSim is the same shape over the simulated
// network, the configuration every experiment and benchmark in this
// file runs on.
func BenchmarkRPC_CallParallelSim(b *testing.B) {
	net := netsim.New(nil)
	net.AddSite("cl", "c", "eu")
	net.AddSite("sv", "s", "us")
	srv, err := rpc.Serve(net, "sv:echo", func(c *rpc.Call) ([]byte, error) {
		return c.Body, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl := rpc.NewClient(net, "cl", "sv:echo")
	b.Cleanup(func() { cl.Close() })
	benchRPCParallel(b, cl, 64)
}

// --- E1: subobject composition overhead ------------------------------

func e1Stub(b *testing.B) *pkgobj.Stub {
	b.Helper()
	p := pkgobj.New()
	lr := core.NewLocalLR(ids.Derive("bench"), p)
	b.Cleanup(func() { lr.Close() })
	stub := pkgobj.NewStub(lr)
	if err := stub.AddFile("f", make([]byte, 4<<10)); err != nil {
		b.Fatal(err)
	}
	return stub
}

func BenchmarkE1_DirectSemanticsCall(b *testing.B) {
	p := pkgobj.New()
	if _, err := p.Invoke(core.Invocation{
		Method: pkgobj.MethodAddFile, Write: true,
		Args: addFileArgs("f", make([]byte, 4<<10)),
	}); err != nil {
		b.Fatal(err)
	}
	inv := core.Invocation{Method: pkgobj.MethodGetFile, Args: getFileArgs("f")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(inv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_ThroughLRStack(b *testing.B) {
	stub := e1Stub(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.GetFileContents("f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_InvocationMarshal(b *testing.B) {
	inv := core.Invocation{Method: pkgobj.MethodGetFile, Args: getFileArgs("f")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecodeInvocation(inv.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

// addFileArgs and getFileArgs mirror the stub's argument encodings so
// the direct-call benchmark bypasses the stub entirely.
func addFileArgs(path string, data []byte) []byte {
	w := wire.NewWriter(8 + len(path) + len(data))
	w.Str(path)
	w.Bytes32(data)
	return w.Bytes()
}

func getFileArgs(path string) []byte {
	w := wire.NewWriter(4 + len(path))
	w.Str(path)
	return w.Bytes()
}

// --- E2/E3: location service -----------------------------------------

// benchGLS deploys a two-region tree with one registered object and
// returns resolvers at increasing distance from it.
func benchGLS(b *testing.B, rootSubnodes int) (oid ids.OID, near, far *gls.Resolver) {
	b.Helper()
	net := netsim.New(nil)
	var rootSites []string
	for i := 0; i < rootSubnodes; i++ {
		site := fmt.Sprintf("hub-%d", i)
		net.AddSite(site, "hub", "core")
		rootSites = append(rootSites, site)
	}
	net.AddSite("eu-a", "eu-a", "eu")
	net.AddSite("us-a", "us-a", "us")
	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: rootSites,
		Children: []gls.DomainSpec{
			{Name: "eu", Sites: []string{"eu-a"}, Children: []gls.DomainSpec{gls.Leaf("eu/a", "eu-a")}},
			{Name: "us", Sites: []string{"us-a"}, Children: []gls.DomainSpec{gls.Leaf("us/a", "us-a")}},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tree.Close)

	near, err = tree.Resolver("eu-a", "eu/a")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { near.Close() })
	far, err = tree.Resolver("us-a", "us/a")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { far.Close() })

	sess, _, err := near.OpenSession("eu-a:gos", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	oid, _, err = sess.Attach(ids.Nil, gls.ContactAddress{
		Protocol: "clientserver", Address: "eu-a:gos", Impl: pkgobj.Impl, Role: "server",
	})
	if err != nil {
		b.Fatal(err)
	}
	return oid, near, far
}

func benchLookup(b *testing.B, res *gls.Resolver, oid ids.OID) {
	b.Helper()
	var virtual time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cost, err := res.Lookup(oid)
		if err != nil {
			b.Fatal(err)
		}
		virtual += cost
	}
	b.ReportMetric(float64(virtual.Milliseconds())/float64(b.N), "virtual-ms/op")
}

func BenchmarkE2_LookupSameLeaf(b *testing.B) {
	oid, near, _ := benchGLS(b, 1)
	benchLookup(b, near, oid)
}

func BenchmarkE2_LookupCrossRegion(b *testing.B) {
	oid, _, far := benchGLS(b, 1)
	benchLookup(b, far, oid)
}

func BenchmarkE3_LookupPartitionedRoot4(b *testing.B) {
	oid, _, far := benchGLS(b, 4)
	benchLookup(b, far, oid)
}

func BenchmarkE3_LookupPartitionedRoot16(b *testing.B) {
	oid, _, far := benchGLS(b, 16)
	benchLookup(b, far, oid)
}

// --- Registration sessions: control-plane renewal cost ----------------

// benchLeaseWorld deploys a one-leaf tree (janitor off, so the timer
// measures renewal, not sweeping) and attaches `replicas` entries to
// one server's registration session.
func benchLeaseWorld(b *testing.B, replicas int) *gls.ServerSession {
	b.Helper()
	net := netsim.New(nil)
	net.AddSite("hub", "hub", "core")
	net.AddSite("gos", "gos", "eu")
	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub"},
		Children: []gls.DomainSpec{gls.Leaf("lan", "gos")},
	}, gls.WithTreeSweep(-1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tree.Close)
	res, err := tree.Resolver("gos", "lan")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { res.Close() })
	sess, _, err := res.OpenSession("gos:gos-obj", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	ca := gls.ContactAddress{Protocol: "clientserver", Address: "gos:gos-obj", Impl: pkgobj.Impl, Role: "server"}
	for i := 0; i < replicas; i++ {
		if _, _, err := sess.Attach(ids.Nil, ca); err != nil {
			b.Fatal(err)
		}
	}
	return sess
}

// BenchmarkLeaseRenewal_Session1k pins the control-plane cost of
// keeping 1000 replicas registered: one batched session renewal per
// heartbeat, however many entries ride the session.
func BenchmarkLeaseRenewal_Session1k(b *testing.B) {
	sess := benchLeaseWorld(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One heartbeat interval, the session way: one batched renew
		// covering all 1000 attached entries.
		if _, err := sess.Renew(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "rpcs/heartbeat")
}

// --- E4: differentiated replication ----------------------------------

func benchE4(b *testing.B, policy bool) {
	b.Helper()
	// One full (small) trace replay per iteration; the table-producing
	// driver carries the real experiment, this tracks its cost.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := experiments.E4Config{Docs: 12, Events: 120, Seed: int64(i) + 1}
		tab := experiments.E4Differentiated(cfg)
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE4_DifferentiatedTraceReplay(b *testing.B) { benchE4(b, true) }

// --- E5: end-to-end downloads ----------------------------------------

// benchWorld publishes one package under a scenario and returns an
// HTTPD test server near (or far from) the replicas.
func benchDownload(b *testing.B, size int, replicated bool) {
	b.Helper()
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)

	servers := []string{"eu-nl-vu"}
	protocol := gdn.ProtocolClientServer
	if replicated {
		servers = []string{"eu-nl-vu", "na-ca-ucb", "ap-jp-ut"}
		protocol = gdn.ProtocolMasterSlave
	}
	mod, err := w.Moderator("eu-nl-vu", "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/bench", gdn.Scenario{
		Protocol: protocol, Servers: w.GOSAddrs(servers...),
	}, gdn.Package{Files: map[string][]byte{"blob": make([]byte, size)}}); err != nil {
		b.Fatal(err)
	}

	h, err := w.HTTPD("ap-au-mu", gdn.HTTPDConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)

	w.Net.ResetMeter()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/pkg/apps/bench/-/blob")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		buf := make([]byte, 64<<10)
		for {
			k, err := resp.Body.Read(buf)
			n += k
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		if n != size {
			b.Fatalf("short download: %d", n)
		}
	}
	b.StopTimer()
	m := w.Net.Meter()
	b.ReportMetric(float64(m.Bytes[netsim.WideArea])/1024/float64(b.N), "wan-KB/op")
	b.ReportMetric(float64(h.Stats().VirtualCost.Milliseconds())/float64(b.N), "virtual-ms/op")
}

func BenchmarkE5_Download1MB_Central(b *testing.B)    { benchDownload(b, 1<<20, false) }
func BenchmarkE5_Download1MB_Replicated(b *testing.B) { benchDownload(b, 1<<20, true) }
func BenchmarkE5_Download100KB_Central(b *testing.B)  { benchDownload(b, 100<<10, false) }

// BenchmarkE5_Download_Large is the bulk-transfer headline: a 64 MiB
// file — over four times the retired MaxFileSize ceiling — through
// the full GOS → HTTPD → HTTP client streaming path. MB/s comes from
// SetBytes; allocs/op tracks the chunk-bounded buffering claim (the
// per-op allocation count must not scale with file size thanks to
// frame pooling).
func BenchmarkE5_Download_Large(b *testing.B) { benchDownload(b, 64<<20, false) }

// benchDownloadParallel measures aggregate throughput under concurrent
// load: each op is one wave of conc simultaneous downloads of a
// size-byte file through a single HTTPD. MB/s is the aggregate across
// the wave; the claim is near-linear scaling from the single-stream
// number up to CPU saturation — the striped store index, striped RPC
// pending table and multi-connection peer dialing are what keep the
// wave off one lock. On few-core hosts (CI) the number demonstrates
// the absence of contention collapse rather than a wall-clock speedup.
func benchDownloadParallel(b *testing.B, size, conc int) {
	b.Helper()
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)

	mod, err := w.Moderator("eu-nl-vu", "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/bench", gdn.Scenario{
		Protocol: gdn.ProtocolClientServer, Servers: w.GOSAddrs("eu-nl-vu"),
	}, gdn.Package{Files: map[string][]byte{"blob": make([]byte, size)}}); err != nil {
		b.Fatal(err)
	}
	h, err := w.HTTPD("ap-au-mu", gdn.HTTPDConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)

	b.SetBytes(int64(size) * int64(conc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errc := make(chan error, conc)
		for j := 0; j < conc; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/pkg/apps/bench/-/blob")
				if err != nil {
					errc <- err
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if n != int64(size) {
					errc <- fmt.Errorf("short download: %d of %d bytes", n, size)
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
	}
}

// BenchmarkE5_Download_Parallel64 is the concurrency headline: 64
// simultaneous 4 MiB downloads through one HTTPD edge.
func BenchmarkE5_Download_Parallel64(b *testing.B) { benchDownloadParallel(b, 4<<20, 64) }

// --- E6: security channels -------------------------------------------

func benchChannel(b *testing.B, mode string) {
	b.Helper()
	net := netsim.New(nil)
	net.AddSite("a", "a", "eu")
	net.AddSite("b", "b", "us")
	l, err := net.Listen("b:svc")
	if err != nil {
		b.Fatal(err)
	}
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cConn, err := net.Dial("a", "b:svc")
	if err != nil {
		b.Fatal(err)
	}
	sConn := <-acc
	l.Close()

	var client, server transport.Conn = cConn, sConn
	if mode != "plain" {
		ca, err := sec.NewAuthority("bench")
		if err != nil {
			b.Fatal(err)
		}
		sCreds, err := sec.NewCredentials(ca, sec.Principal(sec.RoleGOS, "b"), sec.RoleGOS)
		if err != nil {
			b.Fatal(err)
		}
		cCreds, err := sec.NewCredentials(ca, sec.Principal(sec.RoleGOS, "a"), sec.RoleGOS)
		if err != nil {
			b.Fatal(err)
		}
		encrypt := mode == "encrypted"
		type res struct {
			ch  *sec.Channel
			err error
		}
		done := make(chan res, 1)
		go func() {
			ch, err := sec.Server(sConn, &sec.Config{
				Creds: sCreds, TrustAnchors: ca.Anchors(),
				RequireClientAuth: true, Encrypt: encrypt,
			})
			done <- res{ch, err}
		}()
		cch, err := sec.Client(cConn, &sec.Config{
			Creds: cCreds, TrustAnchors: ca.Anchors(), Encrypt: encrypt,
		})
		if err != nil {
			b.Fatal(err)
		}
		r := <-done
		if r.err != nil {
			b.Fatal(r.err)
		}
		client, server = cch, r.ch
	}
	b.Cleanup(func() { client.Close(); server.Close() })

	const payload = 64 << 10
	buf := make([]byte, payload)
	errs := make(chan error, 1)
	go func() {
		for {
			if _, _, err := server.Recv(); err != nil {
				errs <- err
				return
			}
		}
	}()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_Channel64KB_Plain(b *testing.B)     { benchChannel(b, "plain") }
func BenchmarkE6_Channel64KB_Integrity(b *testing.B) { benchChannel(b, "integrity") }
func BenchmarkE6_Channel64KB_Encrypted(b *testing.B) { benchChannel(b, "encrypted") }

// --- E7: name service -------------------------------------------------

func benchResolve(b *testing.B, cached bool) {
	b.Helper()
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	mod, err := w.Moderator("eu-nl-vu", "bench")
	if err != nil {
		b.Fatal(err)
	}
	const names = 32
	for i := 0; i < names; i++ {
		if _, _, err := mod.CreatePackage(fmt.Sprintf("/apps/p%02d", i), gdn.Scenario{
			Protocol: gdn.ProtocolClientServer, Servers: w.GOSAddrs("eu-nl-vu"),
		}, gdn.Package{Files: map[string][]byte{"f": {1}}}); err != nil {
			b.Fatal(err)
		}
	}
	res := w.DNSResolver("na-ny-cu")
	res.CacheEnabled = cached
	svc := gns.NewNameService(res, w.Zone())
	zipf := workload.NewZipf(names, 0.9, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Resolve(fmt.Sprintf("/apps/p%02d", zipf.Next())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_ResolveCached(b *testing.B)   { benchResolve(b, true) }
func BenchmarkE7_ResolveUncached(b *testing.B) { benchResolve(b, false) }

// --- E8: replication protocols ---------------------------------------

func benchProtocolOp(b *testing.B, protocol string, replicas int, write bool) {
	b.Helper()
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)

	allServers := []string{"eu-nl-vu", "na-ca-ucb", "ap-jp-ut"}
	servers := allServers[:replicas]
	mod, err := w.Moderator("eu-nl-vu", "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/bench", gdn.Scenario{
		Protocol: protocol, Servers: w.GOSAddrs(servers...),
	}, gdn.Package{Files: map[string][]byte{"f": make([]byte, 16<<10)}}); err != nil {
		b.Fatal(err)
	}

	stub, _, err := w.BindPackage("na-ny-cu", "/apps/bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { stub.Close() })
	part := make([]byte, 16<<10)

	w.Net.ResetMeter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if write {
			part[0] = byte(i)
			if err := stub.AddFile("f", part); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := stub.GetFileContents("f"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(stub.TakeCost().Milliseconds())/float64(b.N), "virtual-ms/op")
	b.ReportMetric(float64(w.Net.Meter().Bytes[netsim.WideArea])/1024/float64(b.N), "wan-KB/op")
}

func BenchmarkE8_ClientServer_Read(b *testing.B) {
	benchProtocolOp(b, gdn.ProtocolClientServer, 1, false)
}
func BenchmarkE8_MasterSlave3_Read(b *testing.B) {
	benchProtocolOp(b, gdn.ProtocolMasterSlave, 3, false)
}
func BenchmarkE8_MasterSlave3_Write(b *testing.B) {
	benchProtocolOp(b, gdn.ProtocolMasterSlave, 3, true)
}
func BenchmarkE8_Active3_Write(b *testing.B) { benchProtocolOp(b, gdn.ProtocolActive, 3, true) }

// --- E9: checkpoint / recovery ----------------------------------------

func BenchmarkE9_CheckpointRecover1MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.E9Recovery(experiments.E9Config{Sizes: []int{1 << 20}})
		if tab.Rows[0][4] != "yes" {
			b.Fatal("recovery verification failed")
		}
	}
}

// --- E10: admission overhead -------------------------------------------

func benchRemoteRead(b *testing.B, secure bool) {
	b.Helper()
	top := gdn.DefaultTopology()
	top.Secure = secure
	w, err := gdn.NewWorld(top)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	mod, err := w.Moderator("eu-nl-vu", "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/bench", gdn.Scenario{
		Protocol: gdn.ProtocolClientServer, Servers: w.GOSAddrs("eu-nl-vu"),
	}, gdn.Package{Files: map[string][]byte{"f": make([]byte, 4<<10)}}); err != nil {
		b.Fatal(err)
	}
	stub, _, err := w.BindPackage("ap-jp-ut", "/apps/bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { stub.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.GetFileContents("f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_RemoteRead_Open(b *testing.B)    { benchRemoteRead(b, false) }
func BenchmarkE10_RemoteRead_Secured(b *testing.B) { benchRemoteRead(b, true) }

// --- Upload path: streamed deploys and negotiation ---------------------

// BenchmarkUpload_Stream measures raw upload-stream throughput over
// loopback TCP: 256 KiB data frames (the store chunk size) flowing
// client → server under the credit window, against a handler that
// drains them. The deploy-direction mirror of the E5 download numbers.
func BenchmarkUpload_Stream(b *testing.B) {
	var tcp transport.TCP
	srv, err := rpc.Serve(tcp, "127.0.0.1:0", func(c *rpc.Call) ([]byte, error) {
		ur := c.Upload()
		for {
			if _, err := ur.Recv(); err != nil {
				return nil, nil
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl := rpc.NewClient(tcp, "", srv.Addr())
	b.Cleanup(func() { cl.Close() })

	const frame = 256 << 10
	const framesPerOp = 64 // 16 MiB per op
	buf := make([]byte, frame)
	b.SetBytes(frame * framesPerOp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us, err := cl.CallUpload(obs.SpanContext{}, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < framesPerOp; j++ {
			if err := us.Send(buf); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := us.CloseAndRecv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploy_Redeploy measures the negotiated no-op re-deploy: a
// 16 MiB package whose chunks the object server already holds. Only
// OpChunkHave negotiation frames cross the wire, so the number tracks
// negotiation overhead, not content size.
func BenchmarkDeploy_Redeploy(b *testing.B) {
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)

	state, chunks, err := pkgobj.Stage(map[string][]byte{"blob": make([]byte, 16<<20)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	refs, err := pkgobj.StateRefs(state)
	if err != nil {
		b.Fatal(err)
	}
	cl := gos.NewClient(w.Net, "eu-de-tu", w.GOSAddrs("eu-nl-vu")[0], nil)
	b.Cleanup(func() { cl.Close() })
	// First deploy moves the content; every measured iteration re-runs
	// the full PutChunks and must move none.
	if _, _, err := cl.PutChunks(chunks, refs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, _, err := cl.PutChunks(chunks, refs)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sent != 0 {
			b.Fatalf("re-deploy uploaded %d chunks", stats.Sent)
		}
	}
}

// BenchmarkDownload_Failover tracks what a dead replica costs the
// download path: a master/slave pair shares one location record, the
// read-preferred slave is crashed, and every measured download must
// route around the corpse — first by failover, then via the failure
// backoff that keeps traffic off it. CI records this next to the
// healthy-path E5 numbers, so a regression in the routing layer's
// failure handling shows up as failover latency per commit.
func BenchmarkDownload_Failover(b *testing.B) {
	w, err := gdn.NewWorld(gdn.Topology{
		Regions: map[string][]string{
			"eu": {"eu-1", "eu-2"},
			"na": {"na-1"},
		},
		SharedRegionLeaves: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)

	const size = 1 << 20
	mod, err := w.Moderator("eu-1", "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := mod.CreatePackage("/apps/ha", gdn.Scenario{
		Protocol: gdn.ProtocolMasterSlave,
		Servers:  w.GOSAddrs("eu-1", "eu-2"),
	}, gdn.Package{Files: map[string][]byte{"blob": make([]byte, size)}}); err != nil {
		b.Fatal(err)
	}

	h, err := w.HTTPD("na-1", gdn.HTTPDConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)

	// Kill the slave (the preferred read target) before measuring.
	w.Net.SetDown("eu-2", true)

	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/pkg/apps/ha/-/blob")
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n != size {
			b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
		}
	}
	b.StopTimer()
	if errs := h.Stats().Errors; errs != 0 {
		b.Fatalf("handler served %d errors with a dead replica", errs)
	}
}

// --- Million-object location plane ------------------------------------

// benchMillionWorld deploys a two-level tree (root + one leaf, janitor
// off) and registers `objects` contact addresses at the ROOT node
// through a registration session, batched 4096 per RPC. Storing at the
// root keeps setup linear — a leaf-stored object would also install a
// forwarding-pointer chain (two more RPCs each) — and it is the
// paper's own placement for highly mobile objects (§3.5). Lookups run
// from the leaf, so every one exercises the up-phase tree hop before
// finding the addresses at the root.
func benchMillionWorld(b *testing.B, objects int) (*gls.Tree, *gls.ServerSession, []ids.OID) {
	b.Helper()
	net := netsim.New(nil)
	net.AddSite("hub", "hub", "core")
	net.AddSite("gos", "gos", "eu")
	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub"},
		Children: []gls.DomainSpec{gls.Leaf("lan", "gos")},
	}, gls.WithTreeSweep(-1))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tree.Close)
	rootRes, err := tree.Resolver("gos", "root")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rootRes.Close() })
	sess, _, err := rootRes.OpenSession("gos:gos-obj", time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	ca := gls.ContactAddress{Protocol: "clientserver", Address: "gos:gos-obj", Impl: pkgobj.Impl, Role: "server"}
	oids := make([]ids.OID, objects)
	for i := range oids {
		oids[i] = ids.New()
	}
	const batch = 4096
	for at := 0; at < len(oids); at += batch {
		end := at + batch
		if end > len(oids) {
			end = len(oids)
		}
		entries := make(map[ids.OID]gls.ContactAddress, end-at)
		for _, oid := range oids[at:end] {
			entries[oid] = ca
		}
		if _, err := sess.AttachBatch(entries); err != nil {
			b.Fatal(err)
		}
	}
	return tree, sess, oids
}

// BenchmarkGLS_Lookup_1M measures single-client lookup latency against
// a directory node holding one million registered objects, reporting
// p50/p99 read from the gdn_gls_resolver_lookup_seconds histogram and
// the renewal p99 from gdn_gls_session_renew_seconds — the 1M-object
// scaling numbers of the ROADMAP control-plane item.
func BenchmarkGLS_Lookup_1M(b *testing.B) {
	tree, sess, oids := benchMillionWorld(b, 1_000_000)
	res, err := tree.Resolver("gos", "lan")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { res.Close() })
	// Setup left ~1M records of freshly allocated heap behind; finish
	// the GC cycle it provoked so the mark phase is not charged to the
	// first few timed lookups.
	runtime.GC()
	lkBefore := gls.LookupLatency()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := res.Lookup(oids[(i*65537)%len(oids)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	lk := gls.LookupLatency().Delta(lkBefore)
	b.ReportMetric(lk.Quantile(0.50)/1e3, "p50-lookup-µs")
	b.ReportMetric(lk.Quantile(0.99)/1e3, "p99-lookup-µs")
	// Renewal stays O(1) in attached entries: one heartbeat covers all
	// million registrations.
	rnBefore := gls.RenewLatency()
	for i := 0; i < 32; i++ {
		if _, err := sess.Renew(); err != nil {
			b.Fatal(err)
		}
	}
	rn := gls.RenewLatency().Delta(rnBefore)
	b.ReportMetric(rn.Quantile(0.99)/1e3, "p99-renew-µs")
}

// BenchmarkGLS_ParallelLookup drives lookups from 16 concurrent
// resolvers against a 100k-object node. With the record table striped
// across 16 shard locks, parallel throughput should scale well past
// the single-resolver rate — seq-ns/op is the sequential baseline
// measured outside the timer, so scaling = seq-ns/op ÷ ns/op.
func BenchmarkGLS_ParallelLookup(b *testing.B) {
	tree, _, oids := benchMillionWorld(b, 100_000)
	const resolvers = 16
	pool := make([]*gls.Resolver, resolvers)
	for i := range pool {
		r, err := tree.Resolver("gos", "lan")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { r.Close() })
		pool[i] = r
	}
	// Sequential baseline for the scaling ratio, outside the timer.
	const probe = 2000
	start := time.Now()
	for i := 0; i < probe; i++ {
		if _, _, err := pool[0].Lookup(oids[(i*65537)%len(oids)]); err != nil {
			b.Fatal(err)
		}
	}
	seqNs := float64(time.Since(start).Nanoseconds()) / probe

	runtime.GC()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := pool[int(next.Add(1))%resolvers]
		i := int(next.Add(1)) * 131071
		for pb.Next() {
			i++
			if _, _, err := r.Lookup(oids[(i*65537)%len(oids)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(seqNs, "seq-ns/op")
}
