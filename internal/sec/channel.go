package sec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Config configures one side of a security channel.
type Config struct {
	// Creds identifies this party. Required on servers; required on
	// clients only when the server demands mutual authentication.
	Creds *Credentials
	// TrustAnchors maps authority names to public keys; peer
	// certificates must be signed by one of them.
	TrustAnchors map[string]ed25519.PublicKey
	// RequireClientAuth makes a server demand a client certificate —
	// the paper's two-way authentication between GDN hosts (§6.3,
	// Fig 4 link 3). When false the channel is one-way authenticated,
	// as used towards browsers and GDN proxies (links 1 and 2).
	RequireClientAuth bool
	// AllowedRoles, when non-empty, restricts which authenticated peer
	// roles a server admits (e.g. a GOS command port admits only
	// moderators and admins, §6.1).
	AllowedRoles []string
	// Encrypt makes records confidential: the payload is sealed with
	// AES-256-GCM instead of travelling in clear under the GCM tag. The
	// paper notes TLS forces them to pay for confidentiality they do not
	// need; setting this false yields the cheaper integrity-only channel
	// (§6.3).
	Encrypt bool
}

func (c *Config) roleAllowed(role string) bool {
	if len(c.AllowedRoles) == 0 {
		return true
	}
	for _, r := range c.AllowedRoles {
		if r == role {
			return true
		}
	}
	return false
}

// Channel is an authenticated, integrity-protected (and optionally
// encrypted) connection. It implements transport.Conn, so rpc servers
// and clients run over it unchanged — including the multiplexed RPC
// layer, whose concurrent senders serialize on sendMu and whose single
// demux goroutine drains Recv.
type Channel struct {
	conn    transport.Conn
	peer    *Certificate // nil when the peer is anonymous
	encrypt bool

	sendMu    sync.Mutex
	sendSeq   uint64
	sendAEAD  cipher.AEAD
	sendNonce [nonceSize]byte
	recs      []transport.Frame // SendFrames scratch: the sealed records
	bps       []*[]byte         // SendFrames scratch: their pool handles

	recvMu    sync.Mutex
	recvSeq   uint64
	recvAEAD  cipher.AEAD
	recvNonce [nonceSize]byte
}

var _ transport.Conn = (*Channel)(nil)

// Peer returns the authenticated peer certificate, or nil for an
// anonymous (one-way authenticated) peer.
func (ch *Channel) Peer() *Certificate { return ch.peer }

// PeerName returns the authenticated principal name or "".
func (ch *Channel) PeerName() string {
	if ch.peer == nil {
		return ""
	}
	return ch.peer.Name
}

// Handshake message types.
const (
	hsClientHello = 1
	hsServerHello = 2
	hsClientAuth  = 3
	hsFinished    = 4
)

// Handshake flags.
const (
	flagWantEncrypt = 1 << 0
	flagNeedClient  = 1 << 1
	flagHaveCert    = 1 << 2
)

// Client performs the client side of the handshake over conn. cfg.Creds
// may be nil for an anonymous client (e.g. a user's browser). On
// handshake failure the connection is closed — it is useless and the
// peer must not be left blocked mid-handshake.
func Client(conn transport.Conn, cfg *Config) (*Channel, error) {
	ch, err := clientHandshake(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return ch, nil
}

func clientHandshake(conn transport.Conn, cfg *Config) (*Channel, error) {
	curve := ecdh.X25519()
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}

	var flags uint8
	if cfg.Encrypt {
		flags |= flagWantEncrypt
	}
	if cfg.Creds != nil {
		flags |= flagHaveCert
	}
	hello := wire.NewWriter(64)
	hello.Uint8(hsClientHello)
	hello.Uint8(flags)
	hello.Bytes32(priv.PublicKey().Bytes())
	if err := conn.Send(hello.Bytes()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}

	srvFrame, _, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	r := wire.NewReader(srvFrame)
	if r.Uint8() != hsServerHello {
		return nil, fmt.Errorf("%w: unexpected message", ErrHandshake)
	}
	srvFlags := r.Uint8()
	srvPubBytes := append([]byte(nil), r.Bytes32()...)
	srvCertBytes := append([]byte(nil), r.Bytes32()...)
	srvSig := append([]byte(nil), r.Bytes32()...)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}

	srvCert, err := UnmarshalCertificate(srvCertBytes)
	if err != nil {
		return nil, err
	}
	if err := srvCert.Verify(cfg.TrustAnchors); err != nil {
		return nil, err
	}
	transcript := handshakeTranscript(hello.Bytes(), srvPubBytes, srvCertBytes)
	if !ed25519.Verify(srvCert.PublicKey, transcript, srvSig) {
		return nil, fmt.Errorf("%w: server signature invalid", ErrHandshake)
	}

	srvPub, err := ecdh.X25519().NewPublicKey(srvPubBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: bad server key: %v", ErrHandshake, err)
	}
	shared, err := priv.ECDH(srvPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}

	encrypt := cfg.Encrypt && srvFlags&flagWantEncrypt != 0
	ch, err := newChannel(conn, shared, transcript, true, encrypt)
	if err != nil {
		return nil, err
	}
	ch.peer = srvCert

	if srvFlags&flagNeedClient != 0 {
		if cfg.Creds == nil {
			return nil, fmt.Errorf("%w: server requires client authentication", ErrHandshake)
		}
		auth := wire.NewWriter(128)
		auth.Uint8(hsClientAuth)
		auth.Bytes32(cfg.Creds.Cert.Marshal())
		auth.Bytes32(cfg.Creds.sign(transcript))
		if err := ch.Send(auth.Bytes()); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
	}

	// Wait for the server's Finished record, which proves key agreement
	// and (for mutual auth) that the server accepted our certificate.
	fin, _, err := ch.Recv()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	fr := wire.NewReader(fin)
	if fr.Uint8() != hsFinished || fr.Done() != nil {
		return nil, fmt.Errorf("%w: bad finished message", ErrHandshake)
	}
	return ch, nil
}

// Server performs the server side of the handshake over conn.
func Server(conn transport.Conn, cfg *Config) (*Channel, error) {
	ch, err := serverHandshake(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return ch, nil
}

func serverHandshake(conn transport.Conn, cfg *Config) (*Channel, error) {
	if cfg.Creds == nil {
		return nil, fmt.Errorf("%w: server requires credentials", ErrHandshake)
	}
	helloFrame, _, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	r := wire.NewReader(helloFrame)
	if r.Uint8() != hsClientHello {
		return nil, fmt.Errorf("%w: unexpected message", ErrHandshake)
	}
	clFlags := r.Uint8()
	clPubBytes := append([]byte(nil), r.Bytes32()...)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	if cfg.RequireClientAuth && clFlags&flagHaveCert == 0 {
		return nil, fmt.Errorf("%w: client has no certificate but one is required", ErrHandshake)
	}

	curve := ecdh.X25519()
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	clPub, err := curve.NewPublicKey(clPubBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: bad client key: %v", ErrHandshake, err)
	}
	shared, err := priv.ECDH(clPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}

	encrypt := cfg.Encrypt && clFlags&flagWantEncrypt != 0
	// Client authentication is opportunistic: a client that advertises
	// a certificate is always verified (so servers that admit anonymous
	// readers still learn the identity of GDN hosts and moderators for
	// per-operation authorization), and RequireClientAuth additionally
	// refuses anonymous clients.
	wantClientAuth := cfg.RequireClientAuth || clFlags&flagHaveCert != 0
	var srvFlags uint8
	if encrypt {
		srvFlags |= flagWantEncrypt
	}
	if wantClientAuth {
		srvFlags |= flagNeedClient
	}
	certBytes := cfg.Creds.Cert.Marshal()
	srvPubBytes := priv.PublicKey().Bytes()
	transcript := handshakeTranscript(helloFrame, srvPubBytes, certBytes)

	hello := wire.NewWriter(256)
	hello.Uint8(hsServerHello)
	hello.Uint8(srvFlags)
	hello.Bytes32(srvPubBytes)
	hello.Bytes32(certBytes)
	hello.Bytes32(cfg.Creds.sign(transcript))
	if err := conn.Send(hello.Bytes()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}

	ch, err := newChannel(conn, shared, transcript, false, encrypt)
	if err != nil {
		return nil, err
	}

	if wantClientAuth {
		authFrame, _, err := ch.Recv()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		ar := wire.NewReader(authFrame)
		if ar.Uint8() != hsClientAuth {
			return nil, fmt.Errorf("%w: expected client auth", ErrHandshake)
		}
		certB := append([]byte(nil), ar.Bytes32()...)
		sig := append([]byte(nil), ar.Bytes32()...)
		if err := ar.Done(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
		}
		cert, err := UnmarshalCertificate(certB)
		if err != nil {
			return nil, err
		}
		if err := cert.Verify(cfg.TrustAnchors); err != nil {
			return nil, err
		}
		if !ed25519.Verify(cert.PublicKey, transcript, sig) {
			return nil, fmt.Errorf("%w: client signature invalid", ErrHandshake)
		}
		if !cfg.roleAllowed(cert.Role) {
			return nil, fmt.Errorf("%w: role %q", ErrUnauthorized, cert.Role)
		}
		ch.peer = cert
	}

	fin := wire.NewWriter(1)
	fin.Uint8(hsFinished)
	if err := ch.Send(fin.Bytes()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return ch, nil
}

func handshakeTranscript(clientHello, srvPub, srvCert []byte) []byte {
	h := sha256.New()
	h.Write([]byte("gdn-handshake-v2"))
	h.Write(clientHello)
	h.Write(srvPub)
	h.Write(srvCert)
	return h.Sum(nil)
}

// newChannel derives one AES-256-GCM key per direction from the shared
// secret and transcript. isClient selects which key is used for sending.
func newChannel(conn transport.Conn, shared, transcript []byte, isClient, encrypt bool) (*Channel, error) {
	prk := hkdfExtract(transcript, shared)
	cAEAD, err := newAEAD(hkdfExpand(prk, "client write key", 32))
	if err != nil {
		return nil, err
	}
	sAEAD, err := newAEAD(hkdfExpand(prk, "server write key", 32))
	if err != nil {
		return nil, err
	}
	ch := &Channel{conn: conn, encrypt: encrypt}
	if isClient {
		ch.sendAEAD, ch.recvAEAD = cAEAD, sAEAD
	} else {
		ch.sendAEAD, ch.recvAEAD = sAEAD, cAEAD
	}
	return ch, nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// hkdfExtract and hkdfExpand implement the HKDF construction with
// HMAC-SHA256 (RFC 5869 shape, single-block expansion loop).
func hkdfExtract(salt, ikm []byte) []byte {
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

func hkdfExpand(prk []byte, info string, n int) []byte {
	var out, prev []byte
	for i := byte(1); len(out) < n; i++ {
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		m.Write([]byte(info))
		m.Write([]byte{i})
		prev = m.Sum(nil)
		out = append(out, prev...)
	}
	return out[:n]
}

// Record framing: seq(8) || payload || tag(16). The GCM nonce is
// 0(4) || seq — unique because each direction has its own key and seq
// strictly increases.
const (
	seqSize   = 8
	tagSize   = 16
	nonceSize = 12
	// maxPayload keeps every sealed record within transport.MaxFrame.
	maxPayload = transport.MaxFrame - seqSize - tagSize
)

// recPool recycles send-record buffers. The transports below never
// retain the frames passed to SendFrames (TCP framing writes them out,
// netsim copies them), so a buffer can be reused as soon as the call
// returns.
var recPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledRec bounds the record capacity retained by the pool. It is
// sized to keep records carrying a full storage chunk
// (pkgobj.DefaultChunkSize, 256 KiB) plus protocol overhead — the
// dominant large-transfer path — while dropping outliers.
const maxPooledRec = 512 << 10

// sealLocked seals one frame into a pooled record. The frame is
// gathered into the record's payload region — file sections are read
// straight into it — and authenticated in place: integrity-only
// records carry the payload in clear with header and payload as GCM
// additional data; encrypted records encrypt the payload with the
// header as additional data, straight from the caller's buffer when
// the frame is a single part. Caller must hold sendMu and return the
// buffer with putRec once the record is sent.
func (ch *Channel) sealLocked(f *transport.Frame) (*[]byte, []byte, error) {
	n := int(f.Len())
	bp := recPool.Get().(*[]byte)
	if cap(*bp) < seqSize+n+tagSize {
		*bp = make([]byte, 0, seqSize+n+tagSize)
	}
	rec := (*bp)[:seqSize+n+tagSize]
	payload := rec[seqSize : seqSize+n]
	src := f.Head
	if !ch.encrypt || len(f.Body) > 0 || f.File != nil {
		if err := f.ReadInto(payload); err != nil {
			putRec(bp)
			return nil, nil, err
		}
		src = payload
	}
	seq := ch.sendSeq
	ch.sendSeq++
	binary.BigEndian.PutUint64(rec[:seqSize], seq)
	binary.BigEndian.PutUint64(ch.sendNonce[4:], seq)
	if ch.encrypt {
		ch.sendAEAD.Seal(payload[:0], ch.sendNonce[:], src, rec[:seqSize])
	} else {
		ch.sendAEAD.Seal(rec[seqSize+n:seqSize+n], ch.sendNonce[:], nil, rec[:seqSize+n])
	}
	return bp, rec, nil
}

func putRec(bp *[]byte) {
	if cap(*bp) <= maxPooledRec {
		recPool.Put(bp)
	}
}

// Send seals and transmits one record. The sequence number is
// authenticated, giving replay and reorder protection.
func (ch *Channel) Send(p []byte) error {
	_, err := ch.SendFrames([]transport.Frame{{Head: p}})
	return err
}

// SendFrames seals each frame into its own record and hands all the
// records to the underlying transport in one call, preserving order, so
// the multiplexed RPC layer's write combining survives the security
// layer. File sections are read into the records, never spliced, so
// spliced is always 0. If a file read fails nothing is sent and the
// batch's sequence numbers are reused.
func (ch *Channel) SendFrames(frames []transport.Frame) (int64, error) {
	if err := transport.CheckFrames(frames, maxPayload); err != nil {
		return 0, err
	}
	ch.sendMu.Lock()
	defer ch.sendMu.Unlock()
	seq0 := ch.sendSeq
	var err error
	for i := range frames {
		bp, rec, serr := ch.sealLocked(&frames[i])
		if serr != nil {
			err = serr
			ch.sendSeq = seq0
			break
		}
		ch.bps = append(ch.bps, bp)
		ch.recs = append(ch.recs, transport.Frame{Head: rec})
	}
	if err == nil {
		_, err = ch.conn.SendFrames(ch.recs)
	}
	for _, bp := range ch.bps {
		putRec(bp)
	}
	// Drop the references to recycled buffers before reuse.
	clear(ch.bps)
	clear(ch.recs)
	ch.bps, ch.recs = ch.bps[:0], ch.recs[:0]
	return 0, err
}

// putFrame releases the frame of a rejected record. It is a variable
// only so the fuzz target can count releases.
var putFrame = transport.PutFrame

// Recv opens one record, verifying length, sequence and tag in that
// order. A rejected record's frame is released before Recv returns.
func (ch *Channel) Recv() ([]byte, time.Duration, error) {
	ch.recvMu.Lock()
	defer ch.recvMu.Unlock()
	rec, cost, err := ch.conn.Recv()
	if err != nil {
		return nil, 0, err
	}
	if len(rec) < seqSize+tagSize {
		putFrame(rec)
		return nil, 0, fmt.Errorf("%w: short record", ErrRecord)
	}
	seq := binary.BigEndian.Uint64(rec[:seqSize])
	if seq != ch.recvSeq {
		putFrame(rec)
		return nil, 0, fmt.Errorf("%w: sequence %d, want %d (replay or reorder)", ErrRecord, seq, ch.recvSeq)
	}
	binary.BigEndian.PutUint64(ch.recvNonce[4:], seq)
	var body []byte
	if ch.encrypt {
		body, err = ch.recvAEAD.Open(rec[seqSize:seqSize], ch.recvNonce[:], rec[seqSize:], rec[:seqSize])
	} else {
		end := len(rec) - tagSize
		body = rec[seqSize:end]
		_, err = ch.recvAEAD.Open(nil, ch.recvNonce[:], rec[end:], rec[:end])
	}
	if err != nil {
		putFrame(rec)
		return nil, 0, fmt.Errorf("%w: bad tag on record %d", ErrRecord, seq)
	}
	ch.recvSeq++
	return body, cost, nil
}

// Close closes the underlying connection.
func (ch *Channel) Close() error { return ch.conn.Close() }

// LocalAddr returns the underlying local address.
func (ch *Channel) LocalAddr() string { return ch.conn.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (ch *Channel) RemoteAddr() string { return ch.conn.RemoteAddr() }

// WrapClient adapts Client to the rpc.ConnWrapper shape so an rpc.Client
// dials through a security channel.
func (cfg *Config) WrapClient(conn transport.Conn) (transport.Conn, string, error) {
	ch, err := Client(conn, cfg)
	if err != nil {
		return nil, "", err
	}
	return ch, ch.PeerName(), nil
}

// WrapServer adapts Server to the rpc.ConnWrapper shape so an rpc.Server
// accepts connections through a security channel and sees the peer's
// authenticated principal.
func (cfg *Config) WrapServer(conn transport.Conn) (transport.Conn, string, error) {
	ch, err := Server(conn, cfg)
	if err != nil {
		return nil, "", err
	}
	return ch, ch.PeerName(), nil
}
