package sec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"gdn/internal/netsim"
	"gdn/internal/transport"
)

// testbed holds a CA and a connected conn pair over the simulated net.
type testbed struct {
	ca     *Authority
	net    *netsim.Network
	client transport.Conn
	server transport.Conn
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	ca, err := NewAuthority("gdn-admins")
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New(nil)
	n.AddSite("a", "d1", "eu")
	n.AddSite("b", "d2", "us")
	l, err := n.Listen("b:svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			acc <- c
		}
	}()
	cc, err := n.Dial("a", "b:svc")
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{ca: ca, net: n, client: cc, server: <-acc}
}

func (tb *testbed) creds(t *testing.T, name, role string) *Credentials {
	t.Helper()
	c, err := NewCredentials(tb.ca, name, role)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// handshake runs both sides concurrently and returns the channels.
func handshake(t *testing.T, tb *testbed, ccfg, scfg *Config) (*Channel, *Channel, error, error) {
	t.Helper()
	type res struct {
		ch  *Channel
		err error
	}
	sDone := make(chan res, 1)
	go func() {
		ch, err := Server(tb.server, scfg)
		sDone <- res{ch, err}
	}()
	cch, cerr := Client(tb.client, ccfg)
	sr := <-sDone
	return cch, sr.ch, cerr, sr.err
}

func TestOneWayAuthenticatedChannel(t *testing.T) {
	tb := newTestbed(t)
	srvCreds := tb.creds(t, "gos:site-b", RoleGOS)
	ccfg := &Config{TrustAnchors: tb.ca.Anchors(), Encrypt: true}
	scfg := &Config{Creds: srvCreds, TrustAnchors: tb.ca.Anchors(), Encrypt: true}
	cch, sch, cerr, serr := handshake(t, tb, ccfg, scfg)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	// Client knows the server; server sees an anonymous client.
	if cch.PeerName() != "gos:site-b" {
		t.Fatalf("client peer = %q", cch.PeerName())
	}
	if sch.Peer() != nil {
		t.Fatalf("server unexpectedly authenticated client: %v", sch.PeerName())
	}

	if err := cch.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	p, _, err := sch.Recv()
	if err != nil || string(p) != "hello" {
		t.Fatalf("recv: %q %v", p, err)
	}
	if err := sch.Send([]byte("world")); err != nil {
		t.Fatal(err)
	}
	p, _, err = cch.Recv()
	if err != nil || string(p) != "world" {
		t.Fatalf("recv: %q %v", p, err)
	}
}

func TestMutualAuthentication(t *testing.T) {
	tb := newTestbed(t)
	scfg := &Config{
		Creds:             tb.creds(t, "gos:site-b", RoleGOS),
		TrustAnchors:      tb.ca.Anchors(),
		RequireClientAuth: true,
		Encrypt:           true,
	}
	ccfg := &Config{
		Creds:        tb.creds(t, "moderator:alice", RoleModerator),
		TrustAnchors: tb.ca.Anchors(),
		Encrypt:      true,
	}
	cch, sch, cerr, serr := handshake(t, tb, ccfg, scfg)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	if sch.PeerName() != "moderator:alice" {
		t.Fatalf("server peer = %q", sch.PeerName())
	}
	if sch.Peer().Role != RoleModerator {
		t.Fatalf("server peer role = %q", sch.Peer().Role)
	}
	if cch.PeerName() != "gos:site-b" {
		t.Fatalf("client peer = %q", cch.PeerName())
	}
}

func TestMutualAuthRequiredButClientAnonymous(t *testing.T) {
	tb := newTestbed(t)
	scfg := &Config{
		Creds:             tb.creds(t, "gos:site-b", RoleGOS),
		TrustAnchors:      tb.ca.Anchors(),
		RequireClientAuth: true,
	}
	ccfg := &Config{TrustAnchors: tb.ca.Anchors()}
	_, _, cerr, serr := handshake(t, tb, ccfg, scfg)
	if serr == nil && cerr == nil {
		t.Fatal("anonymous client accepted on mutual-auth channel")
	}
}

func TestUntrustedAuthorityRejected(t *testing.T) {
	tb := newTestbed(t)
	rogue, err := NewAuthority("rogue-ca")
	if err != nil {
		t.Fatal(err)
	}
	rogueCreds, err := NewCredentials(rogue, "gos:fake", RoleGOS)
	if err != nil {
		t.Fatal(err)
	}
	scfg := &Config{Creds: rogueCreds, TrustAnchors: rogue.Anchors()}
	ccfg := &Config{TrustAnchors: tb.ca.Anchors()} // trusts only real CA
	_, _, cerr, _ := handshake(t, tb, ccfg, scfg)
	if !errors.Is(cerr, ErrUntrusted) {
		t.Fatalf("client error = %v, want ErrUntrusted", cerr)
	}
}

func TestRoleAuthorization(t *testing.T) {
	tb := newTestbed(t)
	scfg := &Config{
		Creds:             tb.creds(t, "gos:site-b", RoleGOS),
		TrustAnchors:      tb.ca.Anchors(),
		RequireClientAuth: true,
		AllowedRoles:      []string{RoleModerator, RoleAdmin},
	}
	// A mere user with a valid certificate must be rejected.
	ccfg := &Config{
		Creds:        tb.creds(t, "user:mallory", RoleUser),
		TrustAnchors: tb.ca.Anchors(),
	}
	_, _, _, serr := handshake(t, tb, ccfg, scfg)
	if !errors.Is(serr, ErrUnauthorized) {
		t.Fatalf("server error = %v, want ErrUnauthorized", serr)
	}
}

// tappedHandshake establishes a channel pair whose client side sends
// through a tappingConn, so a test can watch and rewrite the client's
// records on the wire.
func tappedHandshake(t *testing.T, tb *testbed, encrypt bool) (*Channel, *Channel, *tappingConn) {
	t.Helper()
	scfg := &Config{Creds: tb.creds(t, "gos:b", RoleGOS), TrustAnchors: tb.ca.Anchors(), Encrypt: encrypt}
	ccfg := &Config{TrustAnchors: tb.ca.Anchors(), Encrypt: encrypt}
	tap := &tappingConn{Conn: tb.client}
	type res struct {
		ch  *Channel
		err error
	}
	sDone := make(chan res, 1)
	go func() {
		ch, err := Server(tb.server, scfg)
		sDone <- res{ch, err}
	}()
	cch, cerr := Client(tap, ccfg)
	sr := <-sDone
	if cerr != nil || sr.err != nil {
		t.Fatalf("handshake: %v %v", cerr, sr.err)
	}
	return cch, sr.ch, tap
}

// tappingConn is a man in the middle on the client's side of the wire:
// it records the last record the client sent and, when tamper is set,
// forwards tamper's rewrite of each record instead of the original.
type tappingConn struct {
	transport.Conn
	last   []byte
	tamper func(rec []byte) []byte
}

func (tc *tappingConn) Send(p []byte) error {
	_, err := tc.SendFrames([]transport.Frame{{Head: p}})
	return err
}

// SendFrames taps records, which a Channel always hands down whole in
// Head.
func (tc *tappingConn) SendFrames(frames []transport.Frame) (int64, error) {
	for _, f := range frames {
		p := f.Head
		tc.last = append([]byte(nil), p...)
		if tc.tamper != nil {
			p = tc.tamper(append([]byte(nil), p...))
		}
		if err := tc.Conn.Send(p); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func flipBit(off func(rec []byte) int) func([]byte) []byte {
	return func(rec []byte) []byte {
		rec[off(rec)] ^= 0x10
		return rec
	}
}

func TestTamperDetected(t *testing.T) {
	// A man in the middle rewrites a genuine record in each of its
	// regions, or reflects a client's own record back at it; the
	// receiver must reject every variant, in both protection modes.
	cases := []struct {
		name    string
		tamper  func(rec []byte) []byte
		reflect bool
	}{
		{name: "sequence header", tamper: flipBit(func([]byte) int { return seqSize - 1 })},
		{name: "payload", tamper: flipBit(func(rec []byte) int { return seqSize + (len(rec)-seqSize-tagSize)/2 })},
		{name: "tag", tamper: flipBit(func(rec []byte) int { return len(rec) - 1 })},
		{name: "truncated", tamper: func(rec []byte) []byte { return rec[:len(rec)-1] }},
		{name: "reflected", reflect: true},
	}
	payload := []byte("withdraw 100 from account 42 and credit account 7")
	for _, encrypt := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(modeName(encrypt)+"/"+tc.name, func(t *testing.T) {
				tb := newTestbed(t)
				cch, sch, tap := tappedHandshake(t, tb, encrypt)
				if !tc.reflect {
					tap.tamper = tc.tamper
					if err := cch.Send(payload); err != nil {
						t.Fatal(err)
					}
					if p, _, err := sch.Recv(); !errors.Is(err, ErrRecord) {
						t.Fatalf("tampered record accepted: %q %v", p, err)
					}
					return
				}
				// Reflect a client record whose sequence number is the
				// one the client expects next, so only the per-direction
				// key can tell it apart from a genuine server record.
				for {
					if err := cch.Send(payload); err != nil {
						t.Fatal(err)
					}
					if _, _, err := sch.Recv(); err != nil {
						t.Fatal(err)
					}
					if cch.sendSeq > cch.recvSeq {
						break
					}
				}
				if seq := binary.BigEndian.Uint64(tap.last); seq != cch.recvSeq {
					t.Fatalf("reflected record has sequence %d, client expects %d", seq, cch.recvSeq)
				}
				if err := tb.server.Send(tap.last); err != nil {
					t.Fatal(err)
				}
				if p, _, err := cch.Recv(); !errors.Is(err, ErrRecord) {
					t.Fatalf("reflected record accepted: %q %v", p, err)
				}
			})
		}
	}
}

func TestReplayDetected(t *testing.T) {
	for _, encrypt := range []bool{false, true} {
		t.Run(modeName(encrypt), func(t *testing.T) {
			tb := newTestbed(t)
			cch, sch, tap := tappedHandshake(t, tb, encrypt)
			if err := cch.Send([]byte("withdraw 100")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sch.Recv(); err != nil {
				t.Fatal(err)
			}
			// Replay the captured record verbatim.
			if err := tb.client.Send(tap.last); err != nil {
				t.Fatal(err)
			}
			if _, _, err := sch.Recv(); !errors.Is(err, ErrRecord) {
				t.Fatalf("replayed record accepted: %v", err)
			}
		})
	}
}

func TestConfidentialityOnWire(t *testing.T) {
	tb := newTestbed(t)
	cch, sch, tap := tappedHandshake(t, tb, true)
	secret := []byte("the gimp 1.2 source tarball")
	if err := cch.Send(secret); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(tap.last, secret) {
		t.Fatal("plaintext visible on wire with Encrypt=true")
	}
	p, _, err := sch.Recv()
	if err != nil || !bytes.Equal(p, secret) {
		t.Fatalf("decrypt failed: %q %v", p, err)
	}
}

func TestIntegrityOnlyLeavesPlaintext(t *testing.T) {
	// With Encrypt=false the payload is visible (integrity only) —
	// the cheaper mode the paper wishes TLS offered (§6.3).
	tb := newTestbed(t)
	cch, sch, tap := tappedHandshake(t, tb, false)
	payload := []byte("public free software bits")
	if err := cch.Send(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tap.last, payload) {
		t.Fatal("integrity-only channel encrypted payload")
	}
	p, _, err := sch.Recv()
	if err != nil || !bytes.Equal(p, payload) {
		t.Fatalf("recv: %q %v", p, err)
	}
}

func TestCertificateMarshalRoundTrip(t *testing.T) {
	ca, _ := NewAuthority("gdn-admins")
	creds, _ := NewCredentials(ca, "moderator:bob", RoleModerator)
	b := creds.Cert.Marshal()
	got, err := UnmarshalCertificate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(creds.Cert) {
		t.Fatal("certificate changed in round trip")
	}
	if err := got.Verify(ca.Anchors()); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateForgeryFails(t *testing.T) {
	ca, _ := NewAuthority("gdn-admins")
	creds, _ := NewCredentials(ca, "user:eve", RoleUser)
	forged := *creds.Cert
	forged.Role = RoleAdmin // privilege escalation attempt
	if err := forged.Verify(ca.Anchors()); err == nil {
		t.Fatal("forged role verified")
	}
	forged2 := *creds.Cert
	forged2.Name = "moderator:eve"
	if err := forged2.Verify(ca.Anchors()); err == nil {
		t.Fatal("forged name verified")
	}
}

func TestUnmarshalCertificateRejectsJunk(t *testing.T) {
	cases := [][]byte{nil, {}, {1, 2, 3}, bytes.Repeat([]byte{0xff}, 64)}
	for _, c := range cases {
		if _, err := UnmarshalCertificate(c); err == nil {
			t.Errorf("UnmarshalCertificate(%v) succeeded", c)
		}
	}
}

func TestChannelManyRecords(t *testing.T) {
	tb := newTestbed(t)
	scfg := &Config{Creds: tb.creds(t, "gos:b", RoleGOS), TrustAnchors: tb.ca.Anchors(), Encrypt: true}
	ccfg := &Config{TrustAnchors: tb.ca.Anchors(), Encrypt: true}
	cch, sch, cerr, serr := handshake(t, tb, ccfg, scfg)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			p, _, err := sch.Recv()
			if err != nil {
				done <- err
				return
			}
			if err := sch.Send(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 200; i++ {
		msg := []byte{byte(i), byte(i >> 8)}
		if err := cch.Send(msg); err != nil {
			t.Fatal(err)
		}
		p, _, err := cch.Recv()
		if err != nil || !bytes.Equal(p, msg) {
			t.Fatalf("record %d: %q %v", i, p, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestChannelCostPassThrough(t *testing.T) {
	tb := newTestbed(t)
	scfg := &Config{Creds: tb.creds(t, "gos:b", RoleGOS), TrustAnchors: tb.ca.Anchors()}
	ccfg := &Config{TrustAnchors: tb.ca.Anchors()}
	cch, sch, cerr, serr := handshake(t, tb, ccfg, scfg)
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: %v %v", cerr, serr)
	}
	go sch.Send([]byte("x"))
	_, cost, err := cch.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("virtual cost lost through security channel")
	}
	_ = time.Now
}

func TestGarbageHandshakeRejected(t *testing.T) {
	tb := newTestbed(t)
	scfg := &Config{Creds: tb.creds(t, "gos:b", RoleGOS), TrustAnchors: tb.ca.Anchors()}
	errCh := make(chan error, 1)
	go func() {
		_, err := Server(tb.server, scfg)
		errCh <- err
	}()
	tb.client.Send([]byte("GET / HTTP/1.0\r\n\r\n"))
	if err := <-errCh; !errors.Is(err, ErrHandshake) {
		t.Fatalf("garbage handshake: %v, want ErrHandshake", err)
	}
}
