// Package sec implements the GDN's transport security (paper §6).
//
// The paper secures the second GDN version by replacing all TCP
// connections between GDN parties with TLS/SSL channels: two-way
// authenticated between GDN hosts, one-way (server only) towards user
// machines, integrity-protected always, and encrypted even though
// confidentiality is not actually required (§6.3). This package is a
// self-contained recreation of exactly those properties on top of the
// repository's frame transport:
//
//   - Certificate identities signed by a GDN authority (the paper's GDN
//     administrators who "hand out moderator privileges", §2), using
//     Ed25519.
//   - A station-to-station style handshake with X25519 key agreement,
//     one-way or mutual authentication.
//   - A record layer with one AES-256-GCM key per direction and
//     strictly increasing sequence numbers (replay protection). By
//     default a record's payload travels in clear, authenticated as GCM
//     additional data (integrity only); with Config.Encrypt it is
//     sealed too, so experiments can price the "superfluous
//     encryption" the paper worries about.
//
// It is an educational recreation of the TLS properties the GDN needs,
// not an implementation of RFC 2246.
package sec

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"

	"gdn/internal/wire"
)

// Roles used by the GDN deployment. Servers authorize peers by role:
// e.g. a Globe Object Server accepts state-changing commands only from
// moderators and fellow GDN hosts (paper §6.1).
const (
	RoleAdmin     = "admin"
	RoleModerator = "moderator"
	RoleGOS       = "gos"
	RoleGLS       = "gls"
	RoleGNS       = "gns"
	RoleHTTPD     = "httpd"
	RoleUser      = "user"
	// RoleMaintainer is the paper's planned fourth group (§2): "allowed
	// to manage just the contents of a package". Maintainers may modify
	// packages that name them in their replication scenario's
	// "maintainers" parameter, but cannot create or remove packages.
	RoleMaintainer = "maintainer"
)

// Errors reported by certificate handling and handshakes.
var (
	ErrBadCertificate = errors.New("sec: invalid certificate")
	ErrUntrusted      = errors.New("sec: certificate not signed by a trusted authority")
	ErrUnauthorized   = errors.New("sec: peer role not authorized")
	ErrHandshake      = errors.New("sec: handshake failed")
	ErrRecord         = errors.New("sec: record integrity failure")
)

// Certificate binds a principal name and role to an Ed25519 public key,
// signed by a GDN authority.
type Certificate struct {
	Name      string // principal, e.g. "moderator:alice" or "gos:eu-nl-vu"
	Role      string
	PublicKey ed25519.PublicKey
	Issuer    string // authority name
	Signature []byte // authority signature over signedBytes
}

// signedBytes is the canonical byte string the authority signs.
func (c *Certificate) signedBytes() []byte {
	w := wire.NewWriter(64)
	w.Str("gdn-cert-v1")
	w.Str(c.Name)
	w.Str(c.Role)
	w.Bytes32(c.PublicKey)
	w.Str(c.Issuer)
	return w.Bytes()
}

// Marshal encodes the certificate for transmission.
func (c *Certificate) Marshal() []byte {
	w := wire.NewWriter(128)
	w.Str(c.Name)
	w.Str(c.Role)
	w.Bytes32(c.PublicKey)
	w.Str(c.Issuer)
	w.Bytes32(c.Signature)
	return w.Bytes()
}

// UnmarshalCertificate decodes a certificate; it validates shape only,
// not the signature (use Verify).
func UnmarshalCertificate(b []byte) (*Certificate, error) {
	r := wire.NewReader(b)
	c := &Certificate{}
	c.Name = r.Str()
	c.Role = r.Str()
	c.PublicKey = ed25519.PublicKey(append([]byte(nil), r.Bytes32()...))
	c.Issuer = r.Str()
	c.Signature = append([]byte(nil), r.Bytes32()...)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCertificate, err)
	}
	if len(c.PublicKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("%w: bad public key length %d", ErrBadCertificate, len(c.PublicKey))
	}
	if c.Name == "" || c.Role == "" {
		return nil, fmt.Errorf("%w: empty name or role", ErrBadCertificate)
	}
	return c, nil
}

// Verify checks the certificate signature against the trust anchors
// (authority name → authority public key).
func (c *Certificate) Verify(anchors map[string]ed25519.PublicKey) error {
	pub, ok := anchors[c.Issuer]
	if !ok {
		return fmt.Errorf("%w: unknown issuer %q", ErrUntrusted, c.Issuer)
	}
	if !ed25519.Verify(pub, c.signedBytes(), c.Signature) {
		return fmt.Errorf("%w: bad signature on %q", ErrUntrusted, c.Name)
	}
	return nil
}

// Authority is the GDN certificate authority, operated by the GDN
// administrators (paper §2). It issues certificates to moderators,
// object servers, HTTPDs and service daemons.
type Authority struct {
	Name string
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewAuthority creates an authority with a fresh key pair.
func NewAuthority(name string) (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Authority{Name: name, pub: pub, priv: priv}, nil
}

// PublicKey returns the trust anchor for this authority.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.pub }

// Anchors returns a trust-anchor map containing just this authority,
// convenient for configuring channels.
func (a *Authority) Anchors() map[string]ed25519.PublicKey {
	return map[string]ed25519.PublicKey{a.Name: a.pub}
}

// Issue signs a certificate binding name and role to pub.
func (a *Authority) Issue(name, role string, pub ed25519.PublicKey) *Certificate {
	c := &Certificate{Name: name, Role: role, PublicKey: pub, Issuer: a.Name}
	c.Signature = ed25519.Sign(a.priv, c.signedBytes())
	return c
}

// Credentials are a party's certificate plus its private key.
type Credentials struct {
	Cert *Certificate
	priv ed25519.PrivateKey
}

// NewCredentials generates a key pair and has the authority certify it.
func NewCredentials(a *Authority, name, role string) (*Credentials, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Credentials{Cert: a.Issue(name, role, pub), priv: priv}, nil
}

// sign produces this party's signature over a handshake transcript.
func (cr *Credentials) sign(transcript []byte) []byte {
	return ed25519.Sign(cr.priv, transcript)
}

// Equal reports whether two certificates are byte-identical.
func (c *Certificate) Equal(o *Certificate) bool {
	if c == nil || o == nil {
		return c == o
	}
	return c.Name == o.Name && c.Role == o.Role && c.Issuer == o.Issuer &&
		bytes.Equal(c.PublicKey, o.PublicKey) && bytes.Equal(c.Signature, o.Signature)
}
