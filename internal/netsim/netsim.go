// Package netsim simulates the wide-area network the GDN deploys on.
//
// The paper runs Globe Object Servers, GDN HTTPDs, location-service
// directory nodes and name servers "on machines all over the world"
// (§4). This package provides that world in-process: named sites grouped
// into regions, a pluggable latency/bandwidth cost model, byte metering
// per link class (local, regional, wide-area), and failure injection
// (site crashes and network partitions).
//
// The network is an implementation of transport.Network. Delivery is
// immediate — goroutines do not sleep — but every frame carries its
// virtual cost (propagation delay plus transmission time), which the RPC
// layer composes along call chains. Experiments therefore run at full
// CPU speed yet report wide-area latency and traffic shapes comparable
// to a real deployment, which is the property the paper's claims are
// about (see DESIGN.md §2, substitution 1).
//
// # Fault model
//
// Beyond clean delivery, the network injects faults at three levels:
//
//   - Connectivity: Partition/PartitionOneWay cut a site pair in both
//     or one direction (an asymmetric partition: A still reaches B
//     while B's frames to A fail), Heal/HealOneWay/HealAll restore it,
//     and SetDown marks a whole site unreachable. Crash additionally
//     severs every established connection touching the site — the
//     in-process servers keep running (their listeners persist), so
//     Restart models a machine returning with its network identity
//     intact; recovering soft state is the protocols' job (leases,
//     re-registration, re-subscription).
//   - Frame perturbation: SetLinkFaults attaches a LinkFaults spec to a
//     link class — probabilistic loss and added virtual-cost jitter,
//     applied at send time on connections whose path has that class.
//     Every connection stays a reliable, in-order stream, as a TCP
//     connection does: a lost frame is retransmitted, so it and the
//     frames behind it are held back in order until a later send gets
//     through. Loss therefore shows up as delay, or — when nothing
//     more is sent, or at Loss 1 — as a silent stall; never as a
//     duplicated, reordered or missing frame. Crashes and partitions
//     are the resets.
//   - Programs: a Schedule is a list of timestamped fault actions (cut,
//     heal, crash, restart, fault bursts) applied by a Runner as the
//     experiment's clock advances, so a whole chaos run is a value that
//     can be stored, printed and replayed.
//
// # Seed discipline
//
// Chaos runs are reproducible from a single seed. The schedule timeline
// — which faults fire, in what order, at which virtual times — is
// exactly deterministic: Runner applies steps in sorted order and its
// Timeline/Digest are pure functions of the Schedule. Frame-level fault
// decisions (which frames are lost) come from a per-
// connection PRNG seeded from SeedFaults' seed, the connection's
// endpoint addresses, and a connection sequence number, so a given
// connection's fault pattern replays exactly when dials happen in the
// same order. Under concurrent load the dial order — and therefore the
// exact set of perturbed frames — may vary between runs; experiments
// that assert bit-identical results across runs must therefore compare
// scheduling-independent quantities (the timeline digest, corruption
// counts, invariant booleans), not raw loss counters.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdn/internal/transport"
)

// LinkClass classifies the path between two sites.
type LinkClass int

// Link classes, from cheapest to most expensive.
const (
	// Loopback is traffic within one site (process to process on one
	// machine or LAN); it is never counted as network traffic.
	Loopback LinkClass = iota
	// Local is traffic between distinct sites in the same leaf domain,
	// e.g. a campus network.
	Local
	// Regional is traffic between sites in the same region (the paper's
	// country/MAN level of the GLS hierarchy).
	Regional
	// WideArea is intercontinental traffic, the scarce resource the GDN
	// exists to conserve (§3.1).
	WideArea
)

// String returns the link class name used in experiment tables.
func (c LinkClass) String() string {
	switch c {
	case Loopback:
		return "loopback"
	case Local:
		return "local"
	case Regional:
		return "regional"
	case WideArea:
		return "wide-area"
	default:
		return fmt.Sprintf("LinkClass(%d)", int(c))
	}
}

// Site is one machine room in the simulated world.
type Site struct {
	// ID is the unique site name, e.g. "eu-nl-vu".
	ID string
	// Domain is the leaf domain (campus/metro) the site belongs to.
	Domain string
	// Region is the wide-area region (continent/country), e.g. "eu".
	Region string
}

// CostModel prices a frame between two sites. Implementations must be
// safe for concurrent use.
type CostModel interface {
	// Classify returns the link class for a path.
	Classify(from, to Site) LinkClass
	// Cost returns the virtual delivery cost of n payload bytes.
	Cost(from, to Site, n int) time.Duration
}

// DefaultModel is a region-based cost model with year-2000-flavoured
// constants: milliseconds inside a site or campus, tens of milliseconds
// within a region, transcontinental latency and thin pipes across the
// wide area.
type DefaultModel struct {
	LoopbackLatency time.Duration
	LocalLatency    time.Duration
	RegionalLatency time.Duration
	WideAreaLatency time.Duration
	// Bandwidths in bytes per second.
	LocalBandwidth    float64
	RegionalBandwidth float64
	WideAreaBandwidth float64
}

// NewDefaultModel returns the model used by the experiments.
func NewDefaultModel() *DefaultModel {
	return &DefaultModel{
		LoopbackLatency:   100 * time.Microsecond,
		LocalLatency:      time.Millisecond,
		RegionalLatency:   15 * time.Millisecond,
		WideAreaLatency:   90 * time.Millisecond,
		LocalBandwidth:    10e6, // 10 MB/s LAN
		RegionalBandwidth: 2e6,  // 2 MB/s national backbone
		WideAreaBandwidth: 250e3,
	}
}

// Classify implements CostModel.
func (m *DefaultModel) Classify(from, to Site) LinkClass {
	switch {
	case from.ID == to.ID:
		return Loopback
	case from.Domain == to.Domain && from.Domain != "":
		return Local
	case from.Region == to.Region && from.Region != "":
		return Regional
	default:
		return WideArea
	}
}

// Cost implements CostModel.
func (m *DefaultModel) Cost(from, to Site, n int) time.Duration {
	switch m.Classify(from, to) {
	case Loopback:
		return m.LoopbackLatency
	case Local:
		return m.LocalLatency + bwTime(n, m.LocalBandwidth)
	case Regional:
		return m.RegionalLatency + bwTime(n, m.RegionalBandwidth)
	default:
		return m.WideAreaLatency + bwTime(n, m.WideAreaBandwidth)
	}
}

func bwTime(n int, bw float64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Stats is a snapshot of metered traffic.
type Stats struct {
	Frames map[LinkClass]int64
	Bytes  map[LinkClass]int64
}

// TotalBytes sums bytes over all link classes.
func (s Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// TotalFrames sums frames over all link classes.
func (s Stats) TotalFrames() int64 {
	var t int64
	for _, f := range s.Frames {
		t += f
	}
	return t
}

// Sub returns s minus earlier, for measuring an interval.
func (s Stats) Sub(earlier Stats) Stats {
	d := Stats{Frames: map[LinkClass]int64{}, Bytes: map[LinkClass]int64{}}
	for c := Loopback; c <= WideArea; c++ {
		d.Frames[c] = s.Frames[c] - earlier.Frames[c]
		d.Bytes[c] = s.Bytes[c] - earlier.Bytes[c]
	}
	return d
}

// String renders the snapshot for experiment tables.
func (s Stats) String() string {
	var b strings.Builder
	for c := Loopback; c <= WideArea; c++ {
		if s.Frames[c] == 0 && s.Bytes[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: %d frames / %d bytes; ", c, s.Frames[c], s.Bytes[c])
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// Network is a simulated wide-area network implementing
// transport.Network. The zero value is not usable; call New.
type Network struct {
	model CostModel

	mu        sync.RWMutex
	sites     map[string]Site
	listeners map[string]*listener // "site:service" -> listener
	cut       map[[2]string]bool   // ordered (from, to): frames from->to fail
	down      map[string]bool
	conns     map[*conn]struct{} // established endpoints, for Crash
	faults    [WideArea + 1]LinkFaults

	seed    int64 // fault PRNG seed (SeedFaults)
	connSeq int64 // per-dial sequence, part of each conn's PRNG seed

	meterMu sync.Mutex
	frames  [WideArea + 1]int64
	bytes   [WideArea + 1]int64

	lost atomic.Int64
}

var _ transport.Network = (*Network)(nil)

// New returns an empty simulated network using the given cost model
// (nil selects NewDefaultModel).
func New(model CostModel) *Network {
	if model == nil {
		model = NewDefaultModel()
	}
	return &Network{
		model:     model,
		sites:     make(map[string]Site),
		listeners: make(map[string]*listener),
		cut:       make(map[[2]string]bool),
		down:      make(map[string]bool),
		conns:     make(map[*conn]struct{}),
		seed:      1,
	}
}

// AddSite registers a site. Adding an existing ID overwrites its
// placement, which tests use to move sites between regions.
func (n *Network) AddSite(id, domain, region string) Site {
	s := Site{ID: id, Domain: domain, Region: region}
	n.mu.Lock()
	n.sites[id] = s
	n.mu.Unlock()
	return s
}

// Sites returns all registered sites sorted by ID.
func (n *Network) Sites() []Site {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]Site, 0, len(n.sites))
	for _, s := range n.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Site looks up a registered site.
func (n *Network) Site(id string) (Site, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s, ok := n.sites[id]
	return s, ok
}

// Classify exposes the cost model's link classification for experiments.
func (n *Network) Classify(fromSite, toSite string) (LinkClass, error) {
	n.mu.RLock()
	f, okF := n.sites[fromSite]
	t, okT := n.sites[toSite]
	n.mu.RUnlock()
	if !okF || !okT {
		return 0, fmt.Errorf("netsim: unknown site in pair %q -> %q", fromSite, toSite)
	}
	return n.model.Classify(f, t), nil
}

// SetDown marks a site as crashed (true) or recovered (false). Frames to
// or from a crashed site fail, and its listeners refuse connections.
// Established connections survive in a wedged state; use Crash to sever
// them too.
func (n *Network) SetDown(site string, down bool) {
	n.mu.Lock()
	n.down[site] = down
	n.mu.Unlock()
}

// Crash marks a site down and severs every established connection that
// touches it, the way a machine losing power kills its TCP sessions.
// Peers observe transport.ErrClosed on their next receive rather than a
// silent wedge.
func (n *Network) Crash(site string) {
	n.mu.Lock()
	n.down[site] = true
	victims := make([]*conn, 0, 8)
	for c := range n.conns {
		if c.local.ID == site || c.remote.ID == site {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Restart brings a crashed site back. Listeners registered before the
// crash still accept (the site returns with its network identity
// intact); recovering soft state — re-registration, lease renewal,
// re-subscription — is the protocols' job.
func (n *Network) Restart(site string) {
	n.SetDown(site, false)
}

// PartitionOneWay cuts connectivity from site a to site b only: a's
// dials and frames toward b fail, while b can still dial and send to a.
// This is the asymmetric partition of the chaos plane — a peer that is
// reachable for requests but whose responses vanish.
func (n *Network) PartitionOneWay(a, b string) {
	n.mu.Lock()
	n.cut[[2]string{a, b}] = true
	n.mu.Unlock()
}

// HealOneWay restores connectivity from site a to site b.
func (n *Network) HealOneWay(a, b string) {
	n.mu.Lock()
	delete(n.cut, [2]string{a, b})
	n.mu.Unlock()
}

// Partition cuts connectivity between two sites in both directions.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.cut[[2]string{a, b}] = true
	n.cut[[2]string{b, a}] = true
	n.mu.Unlock()
}

// Heal restores connectivity between two sites in both directions.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	delete(n.cut, [2]string{a, b})
	delete(n.cut, [2]string{b, a})
	n.mu.Unlock()
}

// HealAll removes every partition (one-way and symmetric) at once, the
// way a schedule ends a partition episode.
func (n *Network) HealAll() {
	n.mu.Lock()
	n.cut = make(map[[2]string]bool)
	n.mu.Unlock()
}

// Meter returns a snapshot of traffic counted since construction or the
// last ResetMeter.
func (n *Network) Meter() Stats {
	n.meterMu.Lock()
	defer n.meterMu.Unlock()
	s := Stats{Frames: map[LinkClass]int64{}, Bytes: map[LinkClass]int64{}}
	for c := Loopback; c <= WideArea; c++ {
		s.Frames[c] = n.frames[c]
		s.Bytes[c] = n.bytes[c]
	}
	return s
}

// ResetMeter zeroes the traffic counters.
func (n *Network) ResetMeter() {
	n.meterMu.Lock()
	for c := Loopback; c <= WideArea; c++ {
		n.frames[c] = 0
		n.bytes[c] = 0
	}
	n.meterMu.Unlock()
}

func (n *Network) record(c LinkClass, bytes int) {
	n.meterMu.Lock()
	n.frames[c]++
	n.bytes[c] += int64(bytes)
	n.meterMu.Unlock()
}

// SplitAddr splits a simulated address "site:service".
func SplitAddr(addr string) (site, service string, err error) {
	i := strings.LastIndex(addr, ":")
	if i <= 0 || i == len(addr)-1 {
		return "", "", fmt.Errorf("netsim: bad address %q (want site:service)", addr)
	}
	return addr[:i], addr[i+1:], nil
}

// Listen implements transport.Network. The address names a registered
// site and a service, e.g. "eu-nl-vu:gos".
func (n *Network) Listen(addr string) (transport.Listener, error) {
	site, _, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.sites[site]; !ok {
		return nil, fmt.Errorf("netsim: listen on unknown site %q", site)
	}
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("netsim: address %q already in use", addr)
	}
	l := &listener{net: n, addr: addr, accept: make(chan *conn, 64), done: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements transport.Network. from is the calling site's ID.
func (n *Network) Dial(from, addr string) (transport.Conn, error) {
	toSite, _, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	fromS, okFrom := n.sites[from]
	toS, okTo := n.sites[toSite]
	l := n.listeners[addr]
	downFrom := n.down[from]
	downTo := n.down[toSite]
	cut := n.cut[[2]string{from, toSite}]
	n.mu.RUnlock()

	if !okFrom {
		return nil, fmt.Errorf("netsim: dial from unknown site %q", from)
	}
	if !okTo {
		return nil, fmt.Errorf("%w: unknown site %q", transport.ErrUnreachable, toSite)
	}
	if downFrom || downTo || cut {
		return nil, fmt.Errorf("%w: %s -> %s", transport.ErrUnreachable, from, addr)
	}
	if l == nil {
		return nil, fmt.Errorf("%w: %s", transport.ErrNoListener, addr)
	}

	clientEnd, serverEnd := newConnPair(n, fromS, toS, from+":ephemeral", addr)
	select {
	case l.accept <- serverEnd:
		return clientEnd, nil
	case <-l.done:
		return nil, fmt.Errorf("%w: %s", transport.ErrNoListener, addr)
	}
}

func (n *Network) removeListener(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

// linkState reports whether frames can currently flow from site a to
// site b, and the fault spec active on that link class when they can.
func (n *Network) linkState(a, b Site) (ok bool, class LinkClass, fl LinkFaults) {
	class = n.model.Classify(a, b)
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.down[a.ID] || n.down[b.ID] || n.cut[[2]string{a.ID, b.ID}] {
		return false, class, LinkFaults{}
	}
	return true, class, n.faults[class]
}

type listener struct {
	net    *Network
	addr   string
	accept chan *conn
	once   sync.Once
	done   chan struct{}
}

func (l *listener) Accept() (transport.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.removeListener(l.addr)
	})
	return nil
}

func (l *listener) Addr() string { return l.addr }

// frame is one delivered message with its virtual cost.
type frame struct {
	payload []byte
	cost    time.Duration
}

// conn is one endpoint of a simulated connection.
type conn struct {
	net        *Network
	local      Site
	remote     Site
	localAddr  string
	remoteAddr string
	out        chan frame // owned by peer: we send into it
	in         chan frame
	closeOnce  sync.Once
	closed     chan struct{}
	peerClosed chan struct{}

	// sendMu serializes senders, so each call's frames go out
	// contiguously, and guards the fault state below.
	sendMu  sync.Mutex
	rngSeed int64
	rng     *rand.Rand // lazily engaged when the link class carries faults
	backlog []frame    // frames held back by loss, in send order
}

func newConnPair(n *Network, dialer, target Site, dialerAddr, targetAddr string) (*conn, *conn) {
	aToB := make(chan frame, 256)
	bToA := make(chan frame, 256)
	closedA := make(chan struct{})
	closedB := make(chan struct{})
	a := &conn{
		net: n, local: dialer, remote: target,
		localAddr: dialerAddr, remoteAddr: targetAddr,
		out: aToB, in: bToA, closed: closedA, peerClosed: closedB,
	}
	b := &conn{
		net: n, local: target, remote: dialer,
		localAddr: targetAddr, remoteAddr: dialerAddr,
		out: bToA, in: aToB, closed: closedB, peerClosed: closedA,
	}
	n.mu.Lock()
	seq := n.connSeq
	n.connSeq++
	a.rngSeed = faultSeed(n.seed, dialerAddr, targetAddr, seq, 0)
	b.rngSeed = faultSeed(n.seed, dialerAddr, targetAddr, seq, 1)
	n.conns[a] = struct{}{}
	n.conns[b] = struct{}{}
	n.mu.Unlock()
	return a, b
}

// Send implements transport.Conn.
func (c *conn) Send(p []byte) error {
	_, err := c.SendFrames([]transport.Frame{{Head: p}})
	return err
}

// SendFrames implements transport.Conn. Each frame is gathered once
// into a pooled delivery buffer — file sections are read straight into
// it — then priced and metered at send time, so callers may reuse their
// buffers as soon as the call returns. Nothing is spliced.
func (c *conn) SendFrames(frames []transport.Frame) (int64, error) {
	if err := transport.CheckFrames(frames, transport.MaxFrame); err != nil {
		return 0, err
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	for i := range frames {
		if err := c.sendLocked(&frames[i]); err != nil {
			if i == 0 {
				// Frames go out one by one: a refused first frame means
				// nothing of this call reached the link.
				err = transport.NotSent(err)
			}
			return 0, err
		}
	}
	return 0, nil
}

// sendLocked copies one frame into a delivery buffer and hands it to
// the link. Caller holds sendMu.
func (c *conn) sendLocked(fr *transport.Frame) error {
	ok, class, fl := c.net.linkState(c.local, c.remote)
	if !ok {
		return fmt.Errorf("%w: %s -> %s", transport.ErrUnreachable, c.local.ID, c.remote.ID)
	}
	n := int(fr.Len())
	f := frame{payload: transport.GetFrame(n), cost: c.net.model.Cost(c.local, c.remote, n)}
	if err := fr.ReadInto(f.payload); err != nil {
		transport.PutFrame(f.payload)
		return err
	}
	if fl.isZero() && len(c.backlog) == 0 {
		return c.deliver(f, class)
	}
	return c.sendFaulty(f, class, fl)
}

// deliver enqueues one frame toward the peer, taking ownership of its
// pooled payload. A connection already closed at either end refuses
// the frame before offering it — a select among ready cases picks at
// random, and a frame slipped into a dead peer's buffer would be lost
// without an error, the way a write into a half-closed socket is.
func (c *conn) deliver(f frame, class LinkClass) error {
	select {
	case <-c.closed:
	case <-c.peerClosed:
	default:
		select {
		case <-c.closed:
		case <-c.peerClosed:
		case c.out <- f:
			c.net.record(class, len(f.payload))
			return nil
		}
	}
	transport.PutFrame(f.payload)
	return transport.ErrClosed
}

// Recv implements transport.Conn.
func (c *conn) Recv() ([]byte, time.Duration, error) {
	select {
	case f := <-c.in:
		return f.payload, f.cost, nil
	case <-c.closed:
		return nil, 0, transport.ErrClosed
	case <-c.peerClosed:
		// Drain any frame that raced with the close.
		select {
		case f := <-c.in:
			return f.payload, f.cost, nil
		default:
			return nil, 0, transport.ErrClosed
		}
	}
}

// Close implements transport.Conn.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.net.mu.Lock()
		delete(c.net.conns, c)
		c.net.mu.Unlock()
		c.sendMu.Lock()
		c.dropBacklog(0)
		c.sendMu.Unlock()
	})
	return nil
}

func (c *conn) LocalAddr() string  { return c.localAddr }
func (c *conn) RemoteAddr() string { return c.remoteAddr }
