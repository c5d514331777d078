package main

import (
	"crypto/rand"
	"fmt"
	"io"
	"runtime"

	"gdn/internal/core"
	"gdn/internal/pkgobj"
	"gdn/internal/sec"
	"gdn/internal/transport"
)

// Layer probes run in traced runs only, after the traced phase: each
// times one public call into a layer the closed loop reaches only from
// inside the program.
const (
	probeRounds  = 8
	secRecords   = 64
	secRecordLen = 256 << 10
	// probeOps numbers probe operations apart from client operations.
	probeOps = uint64(1) << 62
)

// probeRuntime is a user runtime at the edge's site (leaf B) whose DNS
// resolver does not cache, so every probe resolution is cold.
func (s *stack) probeRuntime() (*core.Runtime, error) {
	auth, err := s.creds(sec.RoleUser, "probe")
	if err != nil {
		return nil, err
	}
	if auth != nil {
		auth.RequireClientAuth = false
	}
	return s.runtimeDNS("edge", s.leafB, auth, false), nil
}

// probeResolve times the two resolution steps of a bind separately on
// the cold probe runtime: gns name → OID, then gls OID → addresses.
func probeResolve(r *run, name string, op, parent uint64) error {
	if r.probe == nil {
		rt, err := r.st.probeRuntime()
		if err != nil {
			return err
		}
		r.probe = rt
	}
	_, end := trc.begin("gns.resolve", op, parent)
	oid, _, err := r.probe.Names().Resolve(name)
	end(0)
	if err != nil {
		return fmt.Errorf("probe resolve %s: %w", name, err)
	}
	_, end = trc.begin("gls.lookup", op, parent)
	_, _, err = r.probe.Resolver().Lookup(oid)
	end(0)
	if err != nil {
		return fmt.Errorf("probe lookup %s: %w", name, err)
	}
	return nil
}

// secProbe is what the standalone security-channel probe measured.
type secProbe struct {
	records      int
	allocs, byts float64 // process-wide Mallocs and TotalAlloc deltas
}

// runProbes times, probeRounds times each: name resolution and binding
// of the workload's probe file's package on the cold probe runtime,
// pkgobj.Stub.ReadFileTo of that file into io.Discard from the edge's
// site, and store.GetZC over its chunks on the object server. Then it
// times a standalone sec.Client/Server pair.
func runProbes(r *run) (secProbe, error) {
	trc.on.Store(true)
	defer trc.on.Store(false)
	f := r.files[r.wl.probeFile]
	for i := range probeRounds {
		op := probeOps | uint64(i+1)
		if err := probeResolve(r, f.pkg, op, 0); err != nil {
			return secProbe{}, err
		}
		_, end := trc.begin("core.bind", op, 0)
		lr, _, err := r.probe.BindName(f.pkg)
		end(0)
		if err != nil {
			return secProbe{}, fmt.Errorf("probe bind %s: %w", f.pkg, err)
		}
		_, end = trc.begin("pkgobj.read", op, 0)
		n, err := pkgobj.NewStub(lr).ReadFileTo(io.Discard, f.path)
		end(n)
		lr.Close()
		if err != nil || n != int64(f.size) {
			return secProbe{}, fmt.Errorf("probe read %s: %d bytes: %v", f.path, n, err)
		}
		_, end = trc.begin("store.getzc", op, 0)
		var got int64
		for _, ref := range f.refs {
			data, release, err := r.st.gos.Chunks().GetZC(ref)
			if err != nil {
				return secProbe{}, fmt.Errorf("probe getzc %s: %w", ref.Short(), err)
			}
			got += int64(len(data))
			release()
		}
		end(got)
	}
	return probeSecChannel()
}

// probeSecChannel sends secRecords records of secRecordLen bytes over a
// two-way authenticated sec channel on loopback TCP. Each record's span
// runs from Send until the receiver has opened it.
func probeSecChannel() (secProbe, error) {
	ca, err := sec.NewAuthority("perfbench-probe")
	if err != nil {
		return secProbe{}, err
	}
	config := func(role string) (*sec.Config, error) {
		c, err := sec.NewCredentials(ca, sec.Principal(role, "probe"), role)
		if err != nil {
			return nil, err
		}
		return &sec.Config{Creds: c, TrustAnchors: ca.Anchors(), RequireClientAuth: true}, nil
	}
	srvCfg, err := config(sec.RoleGOS)
	if err != nil {
		return secProbe{}, err
	}
	cliCfg, err := config(sec.RoleHTTPD)
	if err != nil {
		return secProbe{}, err
	}
	tcp := transport.TCP{}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return secProbe{}, err
	}
	defer l.Close()

	const warm = 4
	opened := make(chan error, 1)
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := l.Accept()
		if err != nil {
			opened <- err
			return
		}
		ch, err := sec.Server(conn, srvCfg)
		if err != nil {
			opened <- err
			return
		}
		defer ch.Close()
		for range warm + secRecords {
			body, _, err := ch.Recv()
			if err == nil {
				transport.PutFrame(body)
			}
			opened <- err
			if err != nil {
				return
			}
		}
	}()
	defer func() { <-served }()

	conn, err := tcp.Dial("", l.Addr())
	if err != nil {
		return secProbe{}, err
	}
	ch, err := sec.Client(conn, cliCfg)
	if err != nil {
		return secProbe{}, err
	}
	defer ch.Close()
	payload := make([]byte, secRecordLen)
	rand.Read(payload)
	send := func() error {
		if err := ch.Send(payload); err != nil {
			return err
		}
		return <-opened
	}
	for range warm {
		if err := send(); err != nil {
			return secProbe{}, fmt.Errorf("sec probe: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range secRecords {
		_, end := trc.begin("sec.seal_open", probeOps|uint64(1<<20+i), 0)
		err := send()
		end(secRecordLen)
		if err != nil {
			return secProbe{}, fmt.Errorf("sec probe: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	return secProbe{
		records: secRecords,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		byts:    float64(m1.TotalAlloc - m0.TotalAlloc),
	}, nil
}
