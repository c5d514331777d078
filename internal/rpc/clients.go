package rpc

import (
	"maps"
	"sync"
	"sync/atomic"

	"gdn/internal/transport"
)

// Clients is the table of shared clients one process role keeps, keyed
// by peer address: every object, binding and resolver in the role that
// talks to an address borrows the same Client, so the role holds one
// multiplexed connection per peer (up to the table's max-conns under
// load) however many bindings come and go. Clients dial lazily on
// first use and redial a dead connection by themselves; the table only
// creates them, and its owner closes them all once, with Close.
//
// Every client the table makes rides out one provably-unsent failure
// (Retries = 1): a connection shared across bindings can be found dead
// by the first request after its peer restarted, and that request was
// never sent.
type Clients struct {
	net  transport.Network
	site string
	opts []ClientOption

	// mu serialises map surgery (insertion, Close). Lookups read the
	// current map through m without locking: the map is never mutated
	// once published, so hits stay parallel however many goroutines
	// resolve through the table.
	mu sync.Mutex
	m  atomic.Pointer[map[string]*Client]
}

// NewClients returns an empty table whose clients dial over net from
// site with opts (a connection wrapper, WithMaxConns, ...).
func NewClients(net transport.Network, site string, opts ...ClientOption) *Clients {
	return &Clients{net: net, site: site, opts: opts}
}

// Get returns the shared client for addr, creating it on first use.
// Creating does not dial; the client's first call does. Callers borrow
// the client: they never Close it.
func (t *Clients) Get(addr string) *Client {
	if m := t.m.Load(); m != nil {
		if c := (*m)[addr]; c != nil {
			return c
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var next map[string]*Client
	if m := t.m.Load(); m != nil {
		if c := (*m)[addr]; c != nil {
			return c
		}
		next = maps.Clone(*m)
	} else {
		next = make(map[string]*Client, 1)
	}
	c := NewClient(t.net, t.site, addr, t.opts...)
	c.Retries = 1
	next[addr] = c
	t.m.Store(&next)
	return c
}

// Close closes every client in the table and empties it; calls in
// flight on them fail. A later Get starts a fresh client.
func (t *Clients) Close() error {
	t.mu.Lock()
	m := t.m.Swap(nil)
	t.mu.Unlock()
	if m != nil {
		for _, c := range *m {
			c.Close()
		}
	}
	return nil
}
