package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/netsim"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/store"
	"gdn/internal/wire"
)

func TestInvocationRoundTrip(t *testing.T) {
	f := func(method string, write bool, args []byte) bool {
		if len(method) > 1000 {
			return true
		}
		in := Invocation{Method: method, Write: write, Args: args}
		out, err := DecodeInvocation(in.Encode())
		if err != nil {
			return false
		}
		// Args round-trips nil to empty; compare contents.
		return out.Method == in.Method && out.Write == in.Write &&
			string(out.Args) == string(in.Args)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioValidateAndRoundTrip(t *testing.T) {
	good := Scenario{
		Protocol: "masterslave",
		Servers:  []string{"a:gos", "b:gos"},
		Params:   map[string]string{"push": "sync"},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeScenario(good.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(good, out) {
		t.Fatalf("round trip: %+v != %+v", good, out)
	}

	bad := []Scenario{
		{},
		{Protocol: "x"},
		{Protocol: "x", Servers: []string{""}},
		{Protocol: "x", Servers: []string{"a", "a"}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) must fail", s)
		}
	}
}

func TestScenarioString(t *testing.T) {
	s := Scenario{Protocol: "cache", Servers: []string{"x:gos"}, Params: map[string]string{"ttl": "30s"}}
	got := s.String()
	if !strings.Contains(got, "cache") || !strings.Contains(got, "ttl=30s") {
		t.Fatalf("String() = %q", got)
	}
}

// counterSem is a minimal semantics subobject: a counter with one write
// method and one read method.
type counterSem struct {
	n int64
}

func (c *counterSem) Invoke(inv Invocation) ([]byte, error) {
	switch inv.Method {
	case "inc":
		c.n += int64(binary.BigEndian.Uint64(inv.Args))
		return nil, nil
	case "get":
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, uint64(c.n))
		return out, nil
	default:
		return nil, fmt.Errorf("counter: unknown method %q", inv.Method)
	}
}

func (c *counterSem) MarshalState() ([]byte, error) {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(c.n))
	return out, nil
}

func (c *counterSem) UnmarshalState(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("counter: bad state length %d", len(b))
	}
	c.n = int64(binary.BigEndian.Uint64(b))
	return nil
}

func incArgs(delta int64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(delta))
	return b
}

// testProto is a minimal client/server protocol: replicas execute
// locally; proxies forward every invocation to the first server peer.
func testProto() *Protocol {
	return &Protocol{
		Name: "testproto",
		NewProxy: func(env *Env) (Replication, error) {
			servers := env.PeersWithRole("server")
			if len(servers) == 0 {
				return nil, errors.New("testproto: no server peer")
			}
			return &testProxy{peer: env.Dial(servers[0].Address)}, nil
		},
		NewReplica: func(env *Env) (Replication, error) {
			rep := &testReplica{env: env}
			env.Disp.Register(env.OID, rep.handle)
			return rep, nil
		},
	}
}

type testProxy struct {
	peer *PeerClient
}

func (p *testProxy) Invoke(inv Invocation) ([]byte, time.Duration, error) {
	return p.peer.Call(obs.SpanContext{}, OpInvoke, inv.Encode())
}

func (p *testProxy) ReadBulk(obs.SpanContext, string, int64, int64, func([]byte) error) (Manifest, time.Duration, error) {
	return Manifest{}, 0, ErrNoBulk
}

func (p *testProxy) Close() error { return nil }

type testReplica struct {
	env *Env
}

func (r *testReplica) Invoke(inv Invocation) ([]byte, time.Duration, error) {
	out, err := r.env.Exec.Execute(inv)
	return out, 0, err
}

func (r *testReplica) ReadBulk(obs.SpanContext, string, int64, int64, func([]byte) error) (Manifest, time.Duration, error) {
	return Manifest{}, 0, ErrNoBulk
}

func (r *testReplica) Close() error {
	r.env.Disp.Unregister(r.env.OID)
	return nil
}

func (r *testReplica) handle(call *rpc.Call) ([]byte, error) {
	switch call.Op {
	case OpInvoke:
		inv, err := DecodeInvocation(call.Body)
		if err != nil {
			return nil, err
		}
		return r.env.Exec.Execute(inv)
	case OpStateGet:
		return r.env.Exec.MarshalState()
	default:
		return nil, fmt.Errorf("testproto: op %d", call.Op)
	}
}

// world assembles network + GLS + two runtimes (server site, client
// site) with the counter implementation registered.
type world struct {
	net      *netsim.Network
	tree     *gls.Tree
	serverRT *Runtime
	clientRT *Runtime
	disp     *Dispatcher
	sess     *gls.ServerSession // the server's registrations; see register
}

func newWorld(t *testing.T) *world {
	t.Helper()
	net := netsim.New(nil)
	net.AddSite("hub", "hub", "core")
	net.AddSite("server-site", "eu-nl", "eu")
	net.AddSite("client-site", "us-ca", "us")

	tree, err := gls.Deploy(net, gls.DomainSpec{
		Name: "root", Sites: []string{"hub"},
		Children: []gls.DomainSpec{
			gls.Leaf("eu", "server-site"),
			gls.Leaf("us", "client-site"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)

	reg := NewRegistry()
	reg.RegisterSemantics("counter/1", func() Semantics { return &counterSem{} })
	reg.RegisterProtocol(testProto())

	serverRes, err := tree.Resolver("server-site", "eu")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serverRes.Close() })
	clientRes, err := tree.Resolver("client-site", "us")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientRes.Close() })

	disp, err := NewDispatcher(net, "server-site", "server-site:objects", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disp.Close() })

	w := &world{
		net:  net,
		tree: tree,
		serverRT: NewRuntime(RuntimeConfig{
			Site: "server-site", Net: net, Resolver: serverRes, Registry: reg,
		}),
		clientRT: NewRuntime(RuntimeConfig{
			Site: "client-site", Net: net, Resolver: clientRes, Registry: reg,
		}),
		disp: disp,
	}
	t.Cleanup(func() { w.serverRT.Close(); w.clientRT.Close() })
	return w
}

// register attaches ca to oid in the GLS through the server's
// registration session, opened on first use with a TTL no test
// outlives.
func (w *world) register(t *testing.T, oid ids.OID, ca gls.ContactAddress) {
	t.Helper()
	if w.sess == nil {
		sess, _, err := w.serverRT.Resolver().OpenSession(ca.Address, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		w.sess = sess
	}
	if _, _, err := w.sess.Attach(oid, ca); err != nil {
		t.Fatal(err)
	}
}

// createCounter hosts a counter replica and registers it in the GLS.
func (w *world) createCounter(t *testing.T) (ids.OID, *LR) {
	t.Helper()
	oid := ids.New()
	lr, ca, err := w.serverRT.NewReplica(ReplicaSpec{
		OID: oid, Impl: "counter/1", Protocol: "testproto", Role: "server",
	}, w.disp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lr.Close() })
	w.register(t, oid, ca)
	return oid, lr
}

func TestBindAndInvokeEndToEnd(t *testing.T) {
	w := newWorld(t)
	oid, _ := w.createCounter(t)

	proxy, bindCost, err := w.clientRT.Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	if bindCost <= 0 {
		t.Fatal("bind must report the location lookup cost")
	}

	if _, _, err := proxy.Invoke("inc", true, incArgs(41)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := proxy.Invoke("inc", true, incArgs(1)); err != nil {
		t.Fatal(err)
	}
	out, cost, err := proxy.Invoke("get", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.BigEndian.Uint64(out)); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if cost <= 0 {
		t.Fatal("remote invocation must report network cost")
	}
}

func TestBindUnknownObject(t *testing.T) {
	w := newWorld(t)
	if _, _, err := w.clientRT.Bind(ids.Derive("ghost")); !errors.Is(err, gls.ErrNotFound) {
		t.Fatalf("err = %v, want gls.ErrNotFound", err)
	}
}

func TestBindMissingImplementation(t *testing.T) {
	w := newWorld(t)
	oid := ids.New()
	// Register a contact address naming an implementation the client
	// does not hold.
	ca := gls.ContactAddress{Protocol: "testproto", Address: "server-site:objects", Impl: "exotic/9", Role: "server"}
	w.register(t, oid, ca)
	_, _, err := w.clientRT.Bind(oid)
	if !errors.Is(err, ErrNoImplementation) {
		t.Fatalf("err = %v, want ErrNoImplementation", err)
	}
}

func TestBindMissingProtocol(t *testing.T) {
	w := newWorld(t)
	oid := ids.New()
	ca := gls.ContactAddress{Protocol: "exoticproto", Address: "server-site:objects", Impl: "counter/1", Role: "server"}
	w.register(t, oid, ca)
	_, _, err := w.clientRT.Bind(oid)
	if !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("err = %v, want ErrNoProtocol", err)
	}
}

func TestReplicaSeedState(t *testing.T) {
	w := newWorld(t)
	oid := ids.New()
	seed := &counterSem{n: 7}
	state, err := seed.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	lr, ca, err := w.serverRT.NewReplica(ReplicaSpec{
		OID: oid, Impl: "counter/1", Protocol: "testproto", Role: "server",
		InitState: state,
	}, w.disp)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	w.register(t, oid, ca)

	proxy, _, err := w.clientRT.Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	out, _, err := proxy.Invoke("get", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.BigEndian.Uint64(out)); got != 7 {
		t.Fatalf("seeded counter = %d, want 7", got)
	}
}

func TestInvokeAfterCloseFails(t *testing.T) {
	w := newWorld(t)
	oid, _ := w.createCounter(t)
	proxy, _, err := w.clientRT.Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := proxy.Invoke("get", false, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Closing twice is harmless.
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherDemultiplexesObjects(t *testing.T) {
	w := newWorld(t)
	oidA, _ := w.createCounter(t)
	oidB, _ := w.createCounter(t)

	pa, _, err := w.clientRT.Bind(oidA)
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Close()
	pb, _, err := w.clientRT.Bind(oidB)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()

	if _, _, err := pa.Invoke("inc", true, incArgs(5)); err != nil {
		t.Fatal(err)
	}
	out, _, err := pb.Invoke("get", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.BigEndian.Uint64(out)); got != 0 {
		t.Fatalf("object B saw object A's write: %d", got)
	}
	if w.disp.Objects() != 2 {
		t.Fatalf("dispatcher objects = %d", w.disp.Objects())
	}
}

func TestDispatcherRejectsUnknownObject(t *testing.T) {
	w := newWorld(t)
	cl := rpc.NewClient(w.net, "client-site", w.disp.Addr())
	defer cl.Close()
	peer := &PeerClient{oid: ids.Derive("unknown"), rpc: cl}
	if _, _, err := peer.Call(obs.SpanContext{}, OpInvoke, Invocation{Method: "get"}.Encode()); err == nil {
		t.Fatal("unknown object must be rejected")
	}
}

func TestDispatcherRejectsShortBody(t *testing.T) {
	w := newWorld(t)
	cl := rpc.NewClient(w.net, "client-site", w.disp.Addr())
	defer cl.Close()
	if _, _, err := cl.Call(obs.SpanContext{}, OpInvoke, []byte("short")); err == nil {
		t.Fatal("truncated replica message must be rejected")
	}
}

func TestLocalExecSerializesAccess(t *testing.T) {
	sem := &counterSem{}
	exec := NewLocalExec(sem)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := exec.Execute(Invocation{Method: "inc", Write: true, Args: incArgs(1)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	out, err := exec.Execute(Invocation{Method: "get"})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.BigEndian.Uint64(out)); got != 50 {
		t.Fatalf("counter = %d, want 50 (lost updates)", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.NewSemantics("none"); !errors.Is(err, ErrNoImplementation) {
		t.Fatalf("err = %v", err)
	}
	if _, err := reg.Protocol("none"); !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("err = %v", err)
	}
	reg.RegisterProtocol(&Protocol{Name: "b"})
	reg.RegisterProtocol(&Protocol{Name: "a"})
	if got := reg.Protocols(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Protocols() = %v", got)
	}
}

func TestCostFlowsThroughDispatcher(t *testing.T) {
	// A handler that charges nested cost must surface it to the caller
	// through the dispatcher's demux copy.
	w := newWorld(t)
	oid := ids.New()
	w.disp.Register(oid, func(call *rpc.Call) ([]byte, error) {
		call.Charge(123 * time.Millisecond)
		return nil, nil
	})
	defer w.disp.Unregister(oid)

	cl := rpc.NewClient(w.net, "client-site", w.disp.Addr())
	defer cl.Close()
	peer := &PeerClient{oid: oid, rpc: cl}
	_, cost, err := peer.Call(obs.SpanContext{}, OpInvoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cost < 123*time.Millisecond {
		t.Fatalf("cost = %v, must include the handler's 123ms charge", cost)
	}
}

func TestEnvParamAndPeersWithRole(t *testing.T) {
	env := &Env{
		Params: map[string]string{"ttl": "30"},
		Peers: []gls.ContactAddress{
			{Role: "master", Address: "m:1"},
			{Role: "slave", Address: "s:1"},
			{Role: "slave", Address: "s:2"},
		},
	}
	if env.Param("ttl", "60") != "30" || env.Param("missing", "60") != "60" {
		t.Fatal("Param defaults broken")
	}
	if got := env.PeersWithRole("slave"); len(got) != 2 {
		t.Fatalf("slaves = %v", got)
	}
	if got := env.PeersWithRole("master"); len(got) != 1 || got[0].Address != "m:1" {
		t.Fatalf("masters = %v", got)
	}
}

func TestWriteReadScenarioField(t *testing.T) {
	s := Scenario{Protocol: "active", Servers: []string{"a:gos"}}
	w := wire.NewWriter(64)
	w.Str("before")
	WriteScenario(w, s)
	w.Str("after")

	r := wire.NewReader(w.Bytes())
	if r.Str() != "before" {
		t.Fatal("prefix lost")
	}
	got, err := ReadScenario(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Protocol != "active" {
		t.Fatalf("scenario = %+v", got)
	}
	if r.Str() != "after" {
		t.Fatal("suffix lost")
	}
}

// storedCounter is a counter that keeps bulk content in a chunk store
// it builds when first asked for one, as pkgobj packages do; stores
// counts the stores built.
type storedCounter struct {
	counterSem
	st     *store.Store
	stores *atomic.Int32
}

func (c *storedCounter) UseStore(st *store.Store) { c.st = st }

func (c *storedCounter) Store() *store.Store {
	if c.st == nil {
		c.stores.Add(1)
		c.st = store.Mem()
	}
	return c.st
}

// TestProxyBindBuildsNoStore: a hosted replica gets the store its
// content lives in, but a proxy, whose content is remote, gets none —
// binding, invoking and closing it builds no store.
func TestProxyBindBuildsNoStore(t *testing.T) {
	w := newWorld(t)
	var stores atomic.Int32
	w.clientRT.Registry().RegisterSemantics("stored/1", func() Semantics {
		return &storedCounter{stores: &stores}
	})
	oid := ids.New()
	lr, ca, err := w.serverRT.NewReplica(ReplicaSpec{
		OID: oid, Impl: "stored/1", Protocol: "testproto", Role: "server",
	}, w.disp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lr.Close() })
	w.register(t, oid, ca)
	if stores.Load() != 1 {
		t.Fatalf("hosting a replica built %d stores, want 1", stores.Load())
	}

	proxy, _, err := w.clientRT.Bind(oid)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := proxy.Invoke("inc", true, incArgs(1)); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stores.Load() - 1; got != 0 {
		t.Fatalf("binding a proxy built %d stores", got)
	}
}
