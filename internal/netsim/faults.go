package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"gdn/internal/transport"
)

// LinkFaults is the frame-perturbation spec for one link class. The
// zero value is a clean link. Faults apply at send time, so both
// directions of a connection are perturbed independently. Links stay
// reliable, in-order streams under every spec: like TCP, they turn
// loss into delay, never into a gap or a reordering.
type LinkFaults struct {
	// Loss is the per-frame probability in [0, 1] that a send is lost
	// on the wire. A lost frame is retransmitted: it and every later
	// frame from the same endpoint are held, in order, until a send
	// draws no loss, which delivers the whole backlog. The sender never
	// sees an error; at Loss 1 the link stalls silently.
	Loss float64
	// Jitter adds a uniformly random extra virtual cost in [0, Jitter]
	// to each frame, modelling queueing-delay variance.
	Jitter time.Duration
}

func (f LinkFaults) isZero() bool { return f.Loss == 0 && f.Jitter == 0 }

// String renders the spec for schedule timelines.
func (f LinkFaults) String() string {
	if f.isZero() {
		return "clean"
	}
	var parts []string
	if f.Loss > 0 {
		parts = append(parts, fmt.Sprintf("loss=%.3g", f.Loss))
	}
	if f.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%s", f.Jitter))
	}
	return strings.Join(parts, " ")
}

// SetLinkFaults installs a fault spec on one link class. Passing the
// zero LinkFaults restores clean delivery for that class.
func (n *Network) SetLinkFaults(class LinkClass, f LinkFaults) {
	if class < Loopback || class > WideArea {
		return
	}
	n.mu.Lock()
	n.faults[class] = f
	n.mu.Unlock()
}

// ClearFaults restores clean delivery on every link class. Frames a
// connection is holding after a loss stay held until its next send
// delivers them (equivalent to tail latency).
func (n *Network) ClearFaults() {
	n.mu.Lock()
	n.faults = [WideArea + 1]LinkFaults{}
	n.mu.Unlock()
}

// SeedFaults seeds the frame-level fault PRNGs and resets the
// connection sequence and fault counter, so a workload started after
// this call draws a reproducible fault pattern (see the package
// comment's seed discipline). Existing connections keep their PRNGs.
func (n *Network) SeedFaults(seed int64) {
	n.mu.Lock()
	n.seed = seed
	n.connSeq = 0
	n.mu.Unlock()
	n.lost.Store(0)
}

// FaultStats counts frame-level fault injections since the last
// SeedFaults. These are diagnostic: they depend on how many frames the
// workload happened to send, so deterministic experiments must not
// assert exact values — though one-sided bounds are safe (e.g. E12's
// "wedged-connection condemnations never exceed lost frames").
type FaultStats struct {
	// Lost counts sends that drew loss (each one held a frame back).
	Lost int64
}

// FaultStats returns a snapshot of injected-fault counts.
func (n *Network) FaultStats() FaultStats {
	return FaultStats{Lost: n.lost.Load()}
}

// faultSeed derives a connection endpoint's PRNG seed from the network
// seed, the dial's endpoint addresses, its sequence number, and which
// end of the pair this is.
func faultSeed(seed int64, dialerAddr, targetAddr string, seq int64, end int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s", dialerAddr, targetAddr)
	return seed ^ int64(h.Sum64()) ^ (seq << 8) ^ end
}

// sendFaulty is the perturbed send path: jitter, then the loss draw.
// A lost frame joins the endpoint's backlog; a frame that gets through
// first delivers the backlog in order. Caller holds sendMu.
func (c *conn) sendFaulty(f frame, class LinkClass, fl LinkFaults) error {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.rngSeed))
	}
	if fl.Jitter > 0 {
		f.cost += time.Duration(c.rng.Int63n(int64(fl.Jitter) + 1))
	}
	if fl.Loss > 0 && c.rng.Float64() < fl.Loss {
		c.net.lost.Add(1)
		c.backlog = append(c.backlog, f)
		return nil
	}
	for i, held := range c.backlog {
		if err := c.deliver(held, class); err != nil {
			c.dropBacklog(i + 1)
			transport.PutFrame(f.payload)
			return err
		}
	}
	c.dropBacklog(len(c.backlog))
	return c.deliver(f, class)
}

// dropBacklog recycles the held frames from index i on and empties the
// backlog. Caller holds sendMu.
func (c *conn) dropBacklog(i int) {
	for _, held := range c.backlog[i:] {
		transport.PutFrame(held.payload)
	}
	clear(c.backlog)
	c.backlog = c.backlog[:0]
}
