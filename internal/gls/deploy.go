package gls

import (
	"fmt"
	"sort"
	"time"

	"gdn/internal/sec"
	"gdn/internal/transport"
)

// DomainSpec describes one domain of the location-service hierarchy for
// Deploy: its name, the sites hosting its directory subnodes (one
// subnode per listed site — more than one means the node is partitioned,
// §3.5), and its child domains.
type DomainSpec struct {
	Name     string
	Sites    []string
	Children []DomainSpec
}

// Leaf is shorthand for a leaf domain with a single-subnode directory.
func Leaf(name, site string) DomainSpec {
	return DomainSpec{Name: name, Sites: []string{site}}
}

// Tree is a deployed location-service hierarchy.
type Tree struct {
	net     transport.Network
	auth    *sec.Config
	domains map[string]*deployedDomain
	order   []string // creation order, children after parents
}

type deployedDomain struct {
	ref   Ref
	nodes []*Node
}

// DeployOption configures Deploy.
type DeployOption func(*deployOptions)

type deployOptions struct {
	auth  *sec.Config
	clock func() time.Time
	sweep time.Duration
}

// WithTreeClock installs a time source on every directory node; lease
// expiry is judged against it. Tests install controllable clocks.
func WithTreeClock(clock func() time.Time) DeployOption {
	return func(o *deployOptions) { o.clock = clock }
}

// WithTreeSweep sets the lease-janitor interval on every node
// (negative disables the janitor; tests sweep by hand).
func WithTreeSweep(d time.Duration) DeployOption {
	return func(o *deployOptions) { o.sweep = d }
}

// WithTreeAuth runs every directory node with the given security
// configuration (shared credentials and trust anchors).
func WithTreeAuth(cfg *sec.Config) DeployOption {
	return func(o *deployOptions) { o.auth = cfg }
}

// Deploy starts a directory node for every domain in the hierarchy
// rooted at spec and wires parents to children. It returns a Tree for
// creating resolvers and inspecting nodes. On error, nodes already
// started are shut down.
func Deploy(net transport.Network, spec DomainSpec, opts ...DeployOption) (*Tree, error) {
	var o deployOptions
	for _, opt := range opts {
		opt(&o)
	}
	t := &Tree{net: net, auth: o.auth, domains: make(map[string]*deployedDomain)}
	if err := t.deploy(spec, Ref{}, &o); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

func (t *Tree) deploy(spec DomainSpec, parent Ref, o *deployOptions) error {
	if spec.Name == "" {
		return fmt.Errorf("gls: domain spec without a name")
	}
	if _, dup := t.domains[spec.Name]; dup {
		return fmt.Errorf("gls: duplicate domain %q", spec.Name)
	}
	if len(spec.Sites) == 0 {
		return fmt.Errorf("gls: domain %q has no sites", spec.Name)
	}

	self := Ref{Addrs: make([]string, len(spec.Sites))}
	for i, site := range spec.Sites {
		self.Addrs[i] = fmt.Sprintf("%s:gls-%s-%d", site, spec.Name, i)
	}

	d := &deployedDomain{ref: self}
	for i, site := range spec.Sites {
		node, err := Start(t.net, Config{
			Domain:     spec.Name,
			Site:       site,
			Addr:       self.Addrs[i],
			Self:       self,
			Parent:     parent,
			Seed:       int64(len(t.order))*1000 + int64(i),
			Auth:       o.auth,
			Clock:      o.clock,
			SweepEvery: o.sweep,
		})
		if err != nil {
			for _, n := range d.nodes {
				n.Close()
			}
			return fmt.Errorf("gls: start %s subnode %d: %w", spec.Name, i, err)
		}
		d.nodes = append(d.nodes, node)
	}
	t.domains[spec.Name] = d
	t.order = append(t.order, spec.Name)

	for _, child := range spec.Children {
		if err := t.deploy(child, self, o); err != nil {
			return err
		}
	}
	return nil
}

// Ref returns the directory-node reference for a domain.
func (t *Tree) Ref(domain string) (Ref, bool) {
	d, ok := t.domains[domain]
	if !ok {
		return Ref{}, false
	}
	return d.ref, true
}

// Nodes returns the subnodes serving a domain, in subnode order.
func (t *Tree) Nodes(domain string) []*Node {
	d, ok := t.domains[domain]
	if !ok {
		return nil
	}
	return append([]*Node(nil), d.nodes...)
}

// Domains lists all deployed domains, leaves last within their subtree
// creation order.
func (t *Tree) Domains() []string {
	out := append([]string(nil), t.order...)
	sort.Strings(out)
	return out
}

// Resolver returns a resolver for a client at site attached to the given
// leaf domain. Attaching to interior domains is allowed — the paper only
// requires that the node be the client's local one.
func (t *Tree) Resolver(site, domain string, opts ...ResolverOption) (*Resolver, error) {
	d, ok := t.domains[domain]
	if !ok {
		return nil, fmt.Errorf("gls: unknown domain %q", domain)
	}
	if t.auth != nil {
		opts = append([]ResolverOption{WithResolverAuth(t.auth)}, opts...)
	}
	return NewResolver(t.net, site, d.ref, opts...), nil
}

// Close shuts down every directory node in the tree.
func (t *Tree) Close() {
	for i := len(t.order) - 1; i >= 0; i-- {
		for _, n := range t.domains[t.order[i]].nodes {
			n.Close()
		}
	}
}
