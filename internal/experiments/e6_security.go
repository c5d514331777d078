package experiments

import (
	"fmt"
	"time"

	"gdn/internal/netsim"
	"gdn/internal/sec"
	"gdn/internal/transport"
)

// E6Config tunes the channel-cost experiment.
type E6Config struct {
	// Handshakes measured per mode (default 30).
	Handshakes int
	// Transfers measured per payload size (default 200).
	Transfers int
	// Payloads in bytes (default 1 KiB, 64 KiB, 1 MiB).
	Payloads []int
}

// E6ChannelCost reproduces the §6.3 worry: "we are paying for
// something we do not need: confidentiality. TLS and SSL provide
// confidentiality as well as authentication and integrity protection.
// We are interested only in the latter two. If performance is affected
// too negatively by the superfluous encryption and decryption we will
// have to rethink our security scheme."
//
// The table compares plain connections, integrity-only channels (the
// payload in clear under an AES-GCM tag) and integrity+confidentiality
// channels (the payload AES-GCM sealed) on real CPU time, plus the
// handshake cost of one-way versus two-way authentication (Fig 4).
func E6ChannelCost(cfg E6Config) *Table {
	if cfg.Handshakes <= 0 {
		cfg.Handshakes = 30
	}
	if cfg.Transfers <= 0 {
		cfg.Transfers = 200
	}
	if len(cfg.Payloads) == 0 {
		cfg.Payloads = []int{1 << 10, 64 << 10, 1 << 20}
	}

	t := &Table{
		ID:      "E6",
		Title:   "security channel cost: the price of superfluous encryption (§6.3, Fig 4)",
		Columns: []string{"measurement", "mode", "ns/op", "MB/s", "vs plain"},
	}

	authority, err := sec.NewAuthority("e6-root")
	if err != nil {
		panic(err)
	}
	serverCreds, err := sec.NewCredentials(authority, sec.Principal(sec.RoleGOS, "server"), sec.RoleGOS)
	if err != nil {
		panic(err)
	}
	clientCreds, err := sec.NewCredentials(authority, sec.Principal(sec.RoleModerator, "client"), sec.RoleModerator)
	if err != nil {
		panic(err)
	}

	// Handshakes: one-way (browser→GDN host, Fig 4 link 1) vs two-way
	// (GDN host↔GDN host, link 3).
	oneWay := measureHandshake(cfg.Handshakes, &sec.Config{
		TrustAnchors: authority.Anchors(),
	}, &sec.Config{
		Creds:        serverCreds,
		TrustAnchors: authority.Anchors(),
	})
	t.AddRow("handshake", "one-way auth", fmt.Sprint(oneWay.Nanoseconds()/int64(cfg.Handshakes)), "-", "-")
	twoWay := measureHandshake(cfg.Handshakes, &sec.Config{
		Creds:        clientCreds,
		TrustAnchors: authority.Anchors(),
	}, &sec.Config{
		Creds:             serverCreds,
		TrustAnchors:      authority.Anchors(),
		RequireClientAuth: true,
	})
	t.AddRow("handshake", "two-way auth", fmt.Sprint(twoWay.Nanoseconds()/int64(cfg.Handshakes)),
		"-", fmt.Sprintf("%.2fx one-way", float64(twoWay)/float64(oneWay)))

	// Transfers per payload size and protection mode.
	for _, payload := range cfg.Payloads {
		var plain time.Duration
		for _, mode := range []string{"plain", "integrity", "integrity+encryption"} {
			elapsed := measureTransfer(cfg.Transfers, payload, mode, authority, serverCreds, clientCreds)
			perOp := elapsed.Nanoseconds() / int64(cfg.Transfers)
			mbps := float64(payload) * float64(cfg.Transfers) / elapsed.Seconds() / 1e6
			ratio := "1.00x"
			if mode == "plain" {
				plain = elapsed
			} else {
				ratio = fmt.Sprintf("%.2fx", float64(elapsed)/float64(plain))
			}
			t.AddRow(fmt.Sprintf("%dKB transfer", payload/1024), mode, fmt.Sprint(perOp), fmt.Sprintf("%.0f", mbps), ratio)
		}
	}
	return t
}

// e6Pair builds a fresh connected (client, server) raw pair.
func e6Pair() (transport.Conn, transport.Conn) {
	net := netsim.New(nil)
	net.AddSite("a", "a", "eu")
	net.AddSite("b", "b", "us")
	l, err := net.Listen("b:svc")
	if err != nil {
		panic(err)
	}
	type accepted struct {
		conn transport.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err := net.Dial("a", "b:svc")
	if err != nil {
		panic(err)
	}
	srv := <-ch
	if srv.err != nil {
		panic(srv.err)
	}
	l.Close()
	return client, srv.conn
}

func measureHandshake(n int, clientCfg, serverCfg *sec.Config) time.Duration {
	var total time.Duration
	for i := 0; i < n; i++ {
		cConn, sConn := e6Pair()
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := sec.Server(sConn, serverCfg)
			done <- err
		}()
		if _, err := sec.Client(cConn, clientCfg); err != nil {
			panic(err)
		}
		if err := <-done; err != nil {
			panic(err)
		}
		total += time.Since(start)
		cConn.Close()
		sConn.Close()
	}
	return total
}

func measureTransfer(n, payload int, mode string, authority *sec.Authority, serverCreds, clientCreds *sec.Credentials) time.Duration {
	cConn, sConn := e6Pair()
	defer cConn.Close()
	defer sConn.Close()

	var client, server transport.Conn = cConn, sConn
	if mode != "plain" {
		encrypt := mode == "integrity+encryption"
		serverCfg := &sec.Config{
			Creds: serverCreds, TrustAnchors: authority.Anchors(),
			RequireClientAuth: true, Encrypt: encrypt,
		}
		clientCfg := &sec.Config{
			Creds: clientCreds, TrustAnchors: authority.Anchors(), Encrypt: encrypt,
		}
		type res struct {
			ch  *sec.Channel
			err error
		}
		done := make(chan res, 1)
		go func() {
			ch, err := sec.Server(sConn, serverCfg)
			done <- res{ch, err}
		}()
		cch, err := sec.Client(cConn, clientCfg)
		if err != nil {
			panic(err)
		}
		r := <-done
		if r.err != nil {
			panic(r.err)
		}
		client, server = cch, r.ch
	}

	buf := make([]byte, payload)
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			p, _, err := server.Recv()
			if err != nil {
				recvDone <- err
				return
			}
			transport.PutFrame(p)
		}
		recvDone <- nil
	}()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := client.Send(buf); err != nil {
			panic(err)
		}
	}
	if err := <-recvDone; err != nil {
		panic(err)
	}
	return time.Since(start)
}
