package core

import (
	"fmt"
	"sync"
	"time"

	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Replica protocol operations: the standard message vocabulary between
// the local representatives of one object. Every replication protocol
// composes its behaviour from these; the bodies (beyond the leading
// object identifier) are opaque to the communication layer.
const (
	// OpInvoke carries an invocation to a remote representative for
	// execution under its protocol role.
	OpInvoke uint16 = 0x10 + iota
	// OpStateGet fetches the full marshalled semantics state; used to
	// initialize new replicas and fill caches.
	OpStateGet
	// OpStatePush replaces the receiver's state with the attached
	// snapshot; masters push to slaves with it.
	OpStatePush
	// OpApply executes an already-ordered write invocation on a peer
	// replica; the active-replication protocol fans writes out with it.
	OpApply
	// OpInvalidate tells the receiver its local state is stale; caches
	// drop their copy.
	OpInvalidate
	// OpSubscribe announces a representative to a peer that must keep it
	// consistent: slaves and invalidation-mode caches subscribe to their
	// master or server. The body names the subscriber's address and role.
	OpSubscribe
	// OpUnsubscribe withdraws a subscription on teardown.
	OpUnsubscribe
	// OpChunkGet fetches content chunks by their store refs; the delta
	// state transfer asks a parent for exactly the chunks the local
	// store is missing.
	OpChunkGet
	// OpBulkRead opens a streaming read of one bulk item (a package
	// file): the response arrives as a sequence of chunk-sized frames
	// with the item's size and digest as the trailer.
	OpBulkRead
	// OpChunkHave is the which-of-these-do-you-have negotiation: the
	// body carries content refs, the response the subset the receiver's
	// store lacks. Writers ask before shipping chunk bodies, so a
	// re-deploy of mostly-unchanged content uploads only what changed.
	OpChunkHave
	// OpChunkPut uploads content chunks into the receiver's store ahead
	// of a manifest write that names them. It is an upload-stream call
	// (one chunk per data frame); chunks are verified against their
	// content address on arrival and sit unreferenced until a manifest
	// pins them.
	OpChunkPut
)

// Dispatcher is the listening half of the communication subobject: one
// transport endpoint multiplexing replica traffic for every object
// hosted in this address space. Real deployments run one dispatcher per
// object server or GDN HTTPD; the object identifier prefixed to every
// message picks the local representative.
type Dispatcher struct {
	site   string
	server *rpc.Server

	mu      sync.RWMutex
	objects map[ids.OID]rpc.Handler
}

// NewDispatcher starts a dispatcher on addr. When auth is non-nil every
// inbound connection is upgraded to a security channel; handlers see
// the authenticated peer in Call.Peer and enforce role checks (§6.1).
func NewDispatcher(net transport.Network, site, addr string, auth *sec.Config, logf func(string, ...any)) (*Dispatcher, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &Dispatcher{site: site, objects: make(map[ids.OID]rpc.Handler)}
	opts := []rpc.ServerOption{rpc.WithServerLog(logf)}
	if auth != nil {
		opts = append(opts, rpc.WithServerWrapper(auth.WrapServer))
	}
	srv, err := rpc.Serve(net, addr, d.dispatch, opts...)
	if err != nil {
		return nil, err
	}
	d.server = srv
	return d, nil
}

// Addr returns the dispatcher's transport address: the address part of
// every contact address for representatives hosted here.
func (d *Dispatcher) Addr() string { return d.server.Addr() }

// Site returns the hosting site.
func (d *Dispatcher) Site() string { return d.site }

// Register installs the handler for one object's replica traffic.
func (d *Dispatcher) Register(oid ids.OID, h rpc.Handler) {
	d.mu.Lock()
	d.objects[oid] = h
	d.mu.Unlock()
}

// Unregister removes an object's handler.
func (d *Dispatcher) Unregister(oid ids.OID) {
	d.mu.Lock()
	delete(d.objects, oid)
	d.mu.Unlock()
}

// Objects returns the number of registered objects.
func (d *Dispatcher) Objects() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.objects)
}

// Close stops the endpoint.
func (d *Dispatcher) Close() error { return d.server.Close() }

// dispatch strips the object identifier and routes to the registered
// handler with the remaining body.
func (d *Dispatcher) dispatch(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	oid := r.OID()
	if r.Err() != nil {
		return nil, fmt.Errorf("core: replica message without object identifier")
	}
	d.mu.RLock()
	h := d.objects[oid]
	d.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("core: no representative for object %s here", oid.Short())
	}
	inner := *call
	inner.Body = call.Body[ids.Size:]
	resp, err := h(&inner)
	// Nested costs charged by the handler accumulated on the copy; flow
	// them to the outer call so the client sees the full call tree.
	call.Charge(inner.Cost() - call.Cost())
	return resp, err
}

// PeerClient is the dialing half of the communication subobject: the
// replica protocol for one object, spoken over a client borrowed from
// the runtime's table (Env.Dial). It owns no connection — every object
// bound to the same dispatcher shares one — so it has nothing to close.
type PeerClient struct {
	oid ids.OID
	rpc *rpc.Client
}

// Addr returns the remote dispatcher address.
func (p *PeerClient) Addr() string { return p.rpc.Addr() }

// Call sends one replica-protocol operation, prefixing the object
// identifier.
func (p *PeerClient) Call(op uint16, body []byte) ([]byte, time.Duration, error) {
	return p.CallT(obs.SpanContext{}, op, body)
}

// CallT is Call carrying a trace context into the RPC layer, so a
// replica-protocol hop joins the caller's trace.
func (p *PeerClient) CallT(tc obs.SpanContext, op uint16, body []byte) ([]byte, time.Duration, error) {
	buf := make([]byte, 0, ids.Size+len(body))
	buf = append(buf, p.oid[:]...)
	buf = append(buf, body...)
	return p.rpc.CallT(tc, op, buf)
}

// CallStream opens a streaming replica-protocol call (OpBulkRead),
// prefixing the object identifier.
func (p *PeerClient) CallStream(op uint16, body []byte) (*rpc.Stream, error) {
	return p.CallStreamT(obs.SpanContext{}, op, body)
}

// CallStreamT is CallStream carrying a trace context.
func (p *PeerClient) CallStreamT(tc obs.SpanContext, op uint16, body []byte) (*rpc.Stream, error) {
	buf := make([]byte, 0, ids.Size+len(body))
	buf = append(buf, p.oid[:]...)
	buf = append(buf, body...)
	return p.rpc.CallStreamT(tc, op, buf)
}

// CallUpload opens an upload-stream replica-protocol call
// (OpChunkPut), prefixing the object identifier to the header.
func (p *PeerClient) CallUpload(op uint16, header []byte) (*rpc.UploadStream, error) {
	return p.CallUploadT(obs.SpanContext{}, op, header)
}

// CallUploadT is CallUpload carrying a trace context.
func (p *PeerClient) CallUploadT(tc obs.SpanContext, op uint16, header []byte) (*rpc.UploadStream, error) {
	buf := make([]byte, 0, ids.Size+len(header))
	buf = append(buf, p.oid[:]...)
	buf = append(buf, header...)
	return p.rpc.CallUploadT(tc, op, buf)
}
