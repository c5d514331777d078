package gns

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gdn/internal/dns"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// NameService is the read path of the GNS: it resolves object names to
// object identifiers through ordinary DNS resolution, benefiting from
// resolver caching exactly as the paper intends (§5). One NameService
// wraps one resolver and one zone — the GDN Zone — which it prefixes
// automatically so users never see the DNS domain.
type NameService struct {
	res  *dns.Resolver
	zone string
}

// NewNameService returns a name service resolving names inside zone
// through res.
func NewNameService(res *dns.Resolver, zone string) *NameService {
	return &NameService{res: res, zone: dns.CanonicalName(zone)}
}

// Zone returns the GDN Zone this service resolves within.
func (ns *NameService) Zone() string { return ns.zone }

// Resolve maps an object name such as /apps/graphics/gimp to its object
// identifier. The returned cost is zero when the resolver cache
// answered.
func (ns *NameService) Resolve(objectName string) (ids.OID, time.Duration, error) {
	dnsName, err := NameToDNS(objectName, ns.zone)
	if err != nil {
		return ids.Nil, 0, err
	}
	texts, result, err := ns.res.QueryTXT(dnsName)
	if err != nil {
		if result.RCode == dns.RCodeNXDomain {
			return ids.Nil, result.Cost, fmt.Errorf("%w: %s", ErrNotFound, objectName)
		}
		return ids.Nil, result.Cost, err
	}
	for _, txt := range texts {
		if oid, ok := DecodeOIDRecord(txt); ok {
			return oid, result.Cost, nil
		}
	}
	return ids.Nil, result.Cost, fmt.Errorf("%w: %s", ErrNotFound, objectName)
}

// List returns the child names registered under a directory, sorted.
func (ns *NameService) List(dir string) ([]string, time.Duration, error) {
	dnsName, err := NameToDNS(dir, ns.zone)
	if err != nil {
		return nil, 0, err
	}
	texts, result, err := ns.res.QueryTXT(dnsName)
	if err != nil {
		if result.RCode == dns.RCodeNXDomain {
			return nil, result.Cost, fmt.Errorf("%w: %s", ErrNotFound, dir)
		}
		return nil, result.Cost, err
	}
	var children []string
	for _, txt := range texts {
		if child, ok := DecodeEntryRecord(txt); ok {
			children = append(children, child)
		}
	}
	sort.Strings(children)
	return children, result.Cost, nil
}

// Entry describes one child of a GNS directory.
type Entry struct {
	// Name is the child's label within the directory.
	Name string
	// Package reports that the child is itself a registered object; it
	// may additionally be a directory with children of its own.
	Package bool
}

// Entries returns a directory's children with their directory-versus-
// package classification, from one TXT query: the parent's record set
// carries a package marker alongside each object child's entry record.
// Callers that previously probed every child with Resolve (N extra
// round trips, cost uncounted) list with this instead.
func (ns *NameService) Entries(dir string) ([]Entry, time.Duration, error) {
	dnsName, err := NameToDNS(dir, ns.zone)
	if err != nil {
		return nil, 0, err
	}
	texts, result, err := ns.res.QueryTXT(dnsName)
	if err != nil {
		if result.RCode == dns.RCodeNXDomain {
			return nil, result.Cost, fmt.Errorf("%w: %s", ErrNotFound, dir)
		}
		return nil, result.Cost, err
	}
	pkgs := make(map[string]bool)
	var names []string
	for _, txt := range texts {
		if child, ok := DecodeEntryRecord(txt); ok {
			names = append(names, child)
		} else if child, ok := DecodePkgRecord(txt); ok {
			pkgs[child] = true
		}
	}
	sort.Strings(names)
	entries := make([]Entry, 0, len(names))
	for _, name := range names {
		entries = append(entries, Entry{Name: name, Package: pkgs[name]})
	}
	return entries, result.Cost, nil
}

// maxWalkDepth bounds Walk's recursion so a cyclic or hostile
// directory graph terminates.
const maxWalkDepth = 16

// Walk visits every registered object name under dir, depth first in
// sorted order, calling fn with the name and its identifier. It is the
// enumeration primitive behind attribute-based search — the feature
// the paper wants beyond plain name lookup (§2, §8). Traversal costs
// are returned in aggregate.
func (ns *NameService) Walk(dir string, fn func(name string, oid ids.OID) error) (time.Duration, error) {
	return ns.walk(dir, 0, fn)
}

func (ns *NameService) walk(dir string, depth int, fn func(string, ids.OID) error) (time.Duration, error) {
	if depth > maxWalkDepth {
		return 0, fmt.Errorf("gns: directory tree deeper than %d at %q", maxWalkDepth, dir)
	}
	children, total, err := ns.List(dir)
	if err != nil {
		return total, err
	}
	for _, child := range children {
		full := dir + "/" + child
		if dir == "/" {
			full = "/" + child
		}
		oid, cost, err := ns.Resolve(full)
		total += cost
		switch {
		case err == nil:
			if err := fn(full, oid); err != nil {
				return total, err
			}
		case errors.Is(err, ErrNotFound):
			// A pure directory: no object registered at this name.
		default:
			return total, err
		}
		cost, err = ns.walk(full, depth+1, fn)
		total += cost
		if err != nil && !errors.Is(err, ErrNotFound) {
			return total, err
		}
	}
	return total, nil
}

// Client is the write path of the GNS as seen by a moderator tool: it
// sends add and remove requests to the Naming Authority over an
// (optionally authenticated) channel.
type Client struct {
	rpc *rpc.Client
}

// NewClient connects to a Naming Authority at addr. auth supplies the
// moderator's credentials when the authority enforces admission.
func NewClient(net transport.Network, site, addr string, auth *sec.Config) *Client {
	var opts []rpc.ClientOption
	if auth != nil {
		opts = append(opts, rpc.WithClientWrapper(auth.WrapClient))
	}
	return &Client{rpc: rpc.NewClient(net, site, addr, opts...)}
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// Add registers an object name for an OID.
func (c *Client) Add(name string, oid ids.OID) (time.Duration, error) {
	w := wire.NewWriter(64)
	w.Str(name)
	w.OID(oid)
	_, cost, err := c.rpc.Call(obs.SpanContext{}, OpAdd, w.Bytes())
	return cost, err
}

// Remove deregisters an object name.
func (c *Client) Remove(name string) (time.Duration, error) {
	w := wire.NewWriter(64)
	w.Str(name)
	_, cost, err := c.rpc.Call(obs.SpanContext{}, OpRemove, w.Bytes())
	return cost, err
}

// Flush forces the authority to push pending updates to the name
// servers.
func (c *Client) Flush() (time.Duration, error) {
	_, cost, err := c.rpc.Call(obs.SpanContext{}, OpFlush, nil)
	return cost, err
}

// Pending returns the number of staged update records at the authority.
func (c *Client) Pending() (int, error) {
	resp, _, err := c.rpc.Call(obs.SpanContext{}, OpPending, nil)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(resp)
	n := r.Uint32()
	if err := r.Done(); err != nil {
		return 0, err
	}
	return int(n), nil
}
