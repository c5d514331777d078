// Package gns implements the Globe Name Service: the mapping from
// human-readable, hierarchical object names to object identifiers
// (paper §5). Combined with the location service this forms Globe's
// two-level naming scheme — names map to OIDs, OIDs map to contact
// addresses — and the stability of the name→OID mapping is what lets
// the service be built on DNS with aggressive caching.
//
// Following the paper's prototype, the GNS here is DNS-based: object
// names have a one-to-one mapping to DNS names inside a configured
// zone, the encoded OID lives in a TXT record, and all changes flow
// through a Naming Authority — the sole daemon allowed to send dynamic
// updates to the zone's name servers (signed with TSIG). Moderator
// tools talk to the Naming Authority over authenticated channels, and
// the authority batches updates to keep zone-update load low (§5).
//
// The GDN hides the DNS domain from users: package names look like
// /apps/graphics/gimp, and the single configured "GDN Zone" is
// prefixed automatically before resolution (§5).
package gns

import (
	"errors"
	"fmt"
	"strings"

	"gdn/internal/dns"
	"gdn/internal/ids"
)

// Errors reported by name handling.
var (
	// ErrBadObjectName is returned for names that violate the DNS-imposed
	// syntax restrictions the paper calls out as a disadvantage of the
	// prototype (§5).
	ErrBadObjectName = errors.New("gns: malformed object name")
	// ErrNotFound is returned when a name has no OID record.
	ErrNotFound = errors.New("gns: name not registered")
	// ErrExists is returned when registering a name that is taken.
	ErrExists = errors.New("gns: name already registered")
)

// oidPrefix tags the TXT record holding an object identifier.
const oidPrefix = "globe-oid="

// entryPrefix tags TXT records enumerating a directory's children.
const entryPrefix = "entry="

// pkgPrefix tags TXT records marking a directory child as itself a
// registered object (a package). It lives alongside the child's entry
// record at the parent, so one TXT query classifies every child as
// directory or package without a resolution round trip per child.
const pkgPrefix = "pkg="

// SplitObjectName validates and splits a hierarchical object name such
// as "/apps/graphics/gimp" into its components, lowercased. Components
// must be valid DNS labels — the name-syntax restriction the paper
// accepts in its DNS-based prototype.
func SplitObjectName(name string) ([]string, error) {
	if !strings.HasPrefix(name, "/") {
		return nil, fmt.Errorf("%w: %q must start with '/'", ErrBadObjectName, name)
	}
	parts := strings.Split(strings.ToLower(strings.Trim(name, "/")), "/")
	if len(parts) == 1 && parts[0] == "" {
		return nil, nil // the root directory "/"
	}
	for _, p := range parts {
		if !validLabel(p) {
			return nil, fmt.Errorf("%w: component %q", ErrBadObjectName, p)
		}
	}
	return parts, nil
}

// validLabel enforces DNS label syntax: 1-63 characters, letters,
// digits, hyphens and underscores, not beginning or ending with '-'.
func validLabel(s string) bool {
	if len(s) == 0 || len(s) > 63 {
		return false
	}
	if s[0] == '-' || s[len(s)-1] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// NameToDNS maps an object name to its DNS name inside zone. The
// components reverse so the name nests under the zone the way the paper
// maps /nl/vu/cs/globe/somePackage to somePackage.globe.cs.vu.nl (§5).
func NameToDNS(objectName, zone string) (string, error) {
	parts, err := SplitObjectName(objectName)
	if err != nil {
		return "", err
	}
	zone = dns.CanonicalName(zone)
	if len(parts) == 0 {
		return zone, nil
	}
	rev := make([]string, len(parts))
	for i, p := range parts {
		rev[len(parts)-1-i] = p
	}
	if zone == "" {
		return strings.Join(rev, "."), nil
	}
	return strings.Join(rev, ".") + "." + zone, nil
}

// DNSToName reverses NameToDNS for names inside zone.
func DNSToName(dnsName, zone string) (string, error) {
	dnsName = dns.CanonicalName(dnsName)
	zone = dns.CanonicalName(zone)
	if !dns.InZone(dnsName, zone) {
		return "", fmt.Errorf("%w: %q outside zone %q", ErrBadObjectName, dnsName, zone)
	}
	rel := strings.TrimSuffix(strings.TrimSuffix(dnsName, zone), ".")
	if rel == "" {
		return "/", nil
	}
	parts := strings.Split(rel, ".")
	rev := make([]string, len(parts))
	for i, p := range parts {
		rev[len(parts)-1-i] = p
	}
	return "/" + strings.Join(rev, "/"), nil
}

// EncodeOIDRecord renders an OID as TXT record data.
func EncodeOIDRecord(oid ids.OID) string { return oidPrefix + oid.String() }

// DecodeOIDRecord parses TXT record data produced by EncodeOIDRecord.
func DecodeOIDRecord(txt string) (ids.OID, bool) {
	if !strings.HasPrefix(txt, oidPrefix) {
		return ids.Nil, false
	}
	oid, err := ids.Parse(strings.TrimPrefix(txt, oidPrefix))
	if err != nil {
		return ids.Nil, false
	}
	return oid, true
}

// EncodeEntryRecord renders a directory-child entry as TXT data.
func EncodeEntryRecord(child string) string { return entryPrefix + child }

// DecodeEntryRecord parses directory-entry TXT data.
func DecodeEntryRecord(txt string) (string, bool) {
	if !strings.HasPrefix(txt, entryPrefix) {
		return "", false
	}
	return strings.TrimPrefix(txt, entryPrefix), true
}

// EncodePkgRecord renders a child-is-a-package marker as TXT data.
func EncodePkgRecord(child string) string { return pkgPrefix + child }

// DecodePkgRecord parses package-marker TXT data.
func DecodePkgRecord(txt string) (string, bool) {
	if !strings.HasPrefix(txt, pkgPrefix) {
		return "", false
	}
	return strings.TrimPrefix(txt, pkgPrefix), true
}
