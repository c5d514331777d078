// Package gos implements the Globe Object Server: "an application-
// independent daemon for hosting replicas of any kind of distributed
// shared object" (paper §4). A GOS accepts commands from moderator
// tools — create the first replica of a new object, bind to an
// existing object and create an additional replica, remove a replica —
// registers the replicas it hosts with the Globe Location Service, and
// checkpoints their state to disk so they "save their state during a
// reboot and reconstruct themselves afterwards" (§4).
//
// Security follows §6.1: when configured with credentials, the command
// endpoint accepts state-changing commands only from authenticated
// moderators and administrators, and the GLS registrations it performs
// carry the server's own GOS identity.
package gos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/store"
	"gdn/internal/transport"
	"gdn/internal/walog"
	"gdn/internal/wire"
)

// Command operation codes.
const (
	// OpCreateReplica creates (and registers) one replica. A nil object
	// identifier in the request asks the server to create the first
	// replica of a brand-new object, allocating the identifier as part
	// of location-service registration (§6.1).
	OpCreateReplica uint16 = iota + 1
	// OpRemoveReplica tears one replica down and deregisters it.
	OpRemoveReplica
	// OpListReplicas returns the hosted replicas.
	OpListReplicas
	// OpCheckpoint forces all hosted replicas' state to stable storage.
	OpCheckpoint
	// OpServerInfo returns the server's replica-traffic address and
	// hosted-replica count; moderator tools use it to build contact
	// addresses without address-derivation conventions.
	OpServerInfo
	// OpPutChunks uploads content chunks into the server's chunk
	// store ahead of a create command whose InitState references them
	// by content address. Each chunk is verified against its claimed
	// address on arrival. The call is normally an upload stream (one
	// chunk per data frame); a unary body carrying a counted batch of
	// (ref, bytes) pairs is accepted too.
	OpPutChunks
	// OpChunkHave is the which-of-these-do-you-have negotiation run
	// before OpPutChunks: refs in, the subset the server's store lacks
	// out. A moderator re-deploying a mostly-unchanged package learns
	// it can skip almost every upload.
	OpChunkHave
)

// Config assembles an object server.
type Config struct {
	// Site is the hosting site.
	Site string
	// CmdAddr is the command endpoint moderator tools talk to.
	CmdAddr string
	// ObjAddr is the replica-traffic endpoint (the dispatcher); it is
	// the address part of every contact address this server registers.
	ObjAddr string
	// Runtime supplies the implementation registry and the location-
	// service resolver used for registration.
	Runtime *core.Runtime
	// StateDir is the checkpoint directory; "" disables persistence.
	StateDir string
	// ScrubEvery is the interval between background scrubbing passes
	// over the disk chunk store (persistent servers only). 0 selects a
	// default; negative disables scrubbing.
	ScrubEvery time.Duration
	// ScrubBytes bounds one scrubbing pass; 0 selects a default.
	ScrubBytes int64
	// LeaseTTL is the lifetime of this server's registration session
	// with the location service. Every hosted replica is attached to
	// the one session, and a heartbeat (a third of the TTL) renews them
	// all with a single batched call per leaf subnode — renewal traffic
	// is O(servers), not O(replicas) — so entries stay live while the
	// server does and age out of lookups within one TTL of a crash: the
	// location layer stops advertising dead replicas. 0 selects the
	// default (30s); negative disables leasing (permanent
	// registrations, no heartbeat — the pre-session behaviour).
	LeaseTTL time.Duration
	// DrainAfter is the cumulative count of scrubber-quarantined chunks
	// at which the server declares its store chronically corrupt and
	// drains its replicas out of location-service lookups (without
	// deregistering — state and leases survive, and the server
	// undrains itself once a full scrub pass runs clean and every
	// quarantined ref has been re-fetched). 0 selects the default (4);
	// negative disables draining.
	DrainAfter int
	// Auth protects both endpoints when non-nil. Commands additionally
	// require the moderator or admin role (§6.1, requirement 1).
	Auth *sec.Config
	// Logf receives diagnostics; nil discards them.
	Logf func(string, ...any)
}

// Default scrubbing rate: a pass over up to 256 MiB of chunk content
// every 30 seconds — roughly 8 MiB/s of sequential read, background
// noise against the bulk path it protects.
const (
	defaultScrubEvery = 30 * time.Second
	defaultScrubBytes = 256 << 20
)

// Default replica-health knobs: registrations live 30 seconds past
// the last heartbeat, and four quarantined chunks mark a store as
// chronically corrupt.
const (
	defaultLeaseTTL   = 30 * time.Second
	defaultDrainAfter = 4
)

// hosted is one replica this server runs.
type hosted struct {
	lr   *core.LR
	spec core.ReplicaSpec
	ca   gls.ContactAddress
	// ckptMu serializes checkpoints of this replica: concurrent
	// OpCheckpoint commands could otherwise interleave the file rename
	// and the pin swap in opposite orders, leaving the durable
	// manifest's chunks unpinned.
	ckptMu sync.Mutex
}

// Server is a running Globe Object Server.
type Server struct {
	cfg Config
	net transport.Network

	disp *core.Dispatcher
	cmd  *rpc.Server

	// stopScrub halts the background chunk scrubber; nil when
	// scrubbing is disabled.
	stopScrub func()
	// stopHeartbeat halts the session-renewal loop; nil when leasing is
	// disabled.
	stopHeartbeat func()
	// sess is the registration session every hosted replica's contact
	// address is attached to; nil when leasing is disabled (or the
	// runtime has no resolver).
	sess *gls.ServerSession

	// healthMu guards the scrub-health accounting feeding GLS drain.
	healthMu sync.Mutex
	drained  bool
	scrubBad int // quarantined chunks since the last healthy wrap
	wrapBad  int // quarantined chunks in the current scrub wrap

	// chunks is the server-wide content store every hosted replica's
	// bulk content lives in: disk-backed under StateDir (durable
	// across reboots, §4), memory-backed otherwise. Content shared
	// between replicas — or between a replica and its checkpoints —
	// is stored once.
	chunks *store.Store

	mu      sync.Mutex
	objects map[ids.OID]*hosted
	closing bool
	// pins records, per object, the chunk refs its last durable
	// checkpoint references. Those refs stay retained in the store
	// until the checkpoint is superseded or removed, so live-state
	// churn can never delete a chunk an on-disk manifest still needs.
	pins map[ids.OID][]store.Ref
	// ckptImages holds the latest durable checkpoint image per object
	// — the live set a checkpoint-log compaction rewrites the log
	// from. Guarded by mu.
	ckptImages map[ids.OID][]byte

	// ckptLog is the append-only checkpoint log: each checkpoint is
	// one appended frame instead of a whole-file rewrite per replica,
	// so checkpointing N replicas costs one fsync batch, not N
	// rename+fsync pairs. Nil when StateDir is unset. ckptLogMu
	// serializes appends against compaction (a Rewrite must not lose
	// a frame appended after its live-image scan); lock order is
	// ckptLogMu before mu.
	ckptLog      *walog.Log
	ckptLogMu    sync.Mutex
	ckptLogClose sync.Once
}

// Start launches an object server and recovers any replicas found in
// its state directory, re-registering their contact addresses.
func Start(net transport.Network, cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("gos: config needs a runtime")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:        cfg,
		net:        net,
		objects:    make(map[ids.OID]*hosted),
		pins:       make(map[ids.OID][]store.Ref),
		ckptImages: make(map[ids.OID][]byte),
	}
	chunkDir := ""
	if cfg.StateDir != "" {
		chunkDir = filepath.Join(cfg.StateDir, "chunks")
	}
	chunks, err := store.Open(chunkDir)
	if err != nil {
		return nil, fmt.Errorf("gos: open chunk store: %w", err)
	}
	s.chunks = chunks

	disp, err := core.NewDispatcher(net, cfg.Site, cfg.ObjAddr, cfg.Auth, cfg.Logf)
	if err != nil {
		return nil, err
	}
	s.disp = disp

	// One registration session covers every replica this server will
	// host: replicas attach to it as they are created or recovered, and
	// the heartbeat renews them all with a single batched call.
	if ttl := s.leaseTTL(); ttl > 0 && cfg.Runtime.Resolver() != nil {
		sess, _, err := cfg.Runtime.Resolver().OpenSession(disp.Addr(), ttl)
		if err != nil {
			disp.Close()
			return nil, fmt.Errorf("gos: open registration session: %w", err)
		}
		s.sess = sess
	}

	// Recover before the command endpoint opens: the recovery sweep
	// reclaims every unreferenced chunk, and a moderator upload
	// accepted mid-recovery would be unreferenced by definition.
	if err := s.recover(); err != nil {
		disp.Close()
		for _, h := range s.objects {
			h.lr.Close()
		}
		if s.ckptLog != nil {
			s.ckptLog.Close()
		}
		return nil, err
	}

	opts := []rpc.ServerOption{rpc.WithServerLog(cfg.Logf)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithServerWrapper(cfg.Auth.WrapServer))
	}
	cmd, err := rpc.Serve(net, cfg.CmdAddr, s.handle, opts...)
	if err != nil {
		disp.Close()
		for _, h := range s.objects {
			h.lr.Close()
		}
		if s.ckptLog != nil {
			s.ckptLog.Close()
		}
		return nil, err
	}
	s.cmd = cmd

	// Background scrubbing re-verifies the durable chunks this server
	// is trusted to serve; a quarantined chunk is refetched by the next
	// state transfer that needs it (repair by delta sync). Scrub
	// results feed the location service: chronic corruption drains
	// this server's replicas out of lookups until the store heals.
	if cfg.StateDir != "" && cfg.ScrubEvery >= 0 {
		every, bytes := cfg.ScrubEvery, cfg.ScrubBytes
		if every == 0 {
			every = defaultScrubEvery
		}
		if bytes == 0 {
			bytes = defaultScrubBytes
		}
		s.stopScrub = s.startScrubLoop(every, bytes)
	}

	// Heartbeat: renew the registration session at a third of the lease
	// TTL, so every attached registration stays live exactly as long as
	// the server does.
	if s.sess != nil {
		s.stopHeartbeat = s.startHeartbeat(s.leaseTTL() / 3)
	}
	return s, nil
}

// leaseTTL returns the effective registration TTL (0 when leasing is
// disabled).
func (s *Server) leaseTTL() time.Duration {
	switch {
	case s.cfg.LeaseTTL < 0:
		return 0
	case s.cfg.LeaseTTL == 0:
		return defaultLeaseTTL
	default:
		return s.cfg.LeaseTTL
	}
}

// drainAfter returns the effective chronic-corruption threshold (0
// when draining is disabled).
func (s *Server) drainAfter() int {
	switch {
	case s.cfg.DrainAfter < 0:
		return 0
	case s.cfg.DrainAfter == 0:
		return defaultDrainAfter
	default:
		return s.cfg.DrainAfter
	}
}

// register inserts one replica's contact address — attached to the
// server's registration session when leasing is on, permanent
// otherwise.
func (s *Server) register(oid ids.OID, ca gls.ContactAddress) (time.Duration, error) {
	if s.sess != nil {
		_, cost, err := s.sess.Attach(oid, ca)
		return cost, err
	}
	_, cost, err := s.cfg.Runtime.Resolver().Insert(oid, ca)
	return cost, err
}

// deregister removes one replica's contact address and, when leasing is
// on, drops it from the session's re-attach set.
func (s *Server) deregister(oid ids.OID) (time.Duration, error) {
	if s.sess != nil {
		return s.sess.Detach(oid)
	}
	return s.cfg.Runtime.Resolver().Delete(oid, s.disp.Addr())
}

// startHeartbeat renews every hosted replica's lease on a ticker.
func (s *Server) startHeartbeat(every time.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Heartbeat()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }); <-done }
}

// Heartbeat renews the registration session now — one batched call per
// leaf subnode keeps every hosted replica's entry alive, however many
// there are. The background loop calls it on a ticker; tests call it
// directly.
func (s *Server) Heartbeat() {
	if s.sess == nil {
		return
	}
	if _, err := s.sess.Renew(); err != nil {
		s.cfg.Logf("gos: renew registration session: %v", err)
	}
}

// startScrubLoop drives bounded scrub passes and feeds their results
// into the drain policy.
func (s *Server) startScrubLoop(every time.Duration, bytesPerPass int64) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.ScrubPass(bytesPerPass)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }); <-done }
}

// ScrubPass runs one bounded scrub pass and applies the drain policy:
// crossing the chronic-corruption threshold drains this server's
// replicas out of location-service lookups; a full wrap over the
// store with zero corruption and every quarantined ref re-fetched
// undrains them. The background loop calls it on a ticker; tests call
// it directly. limit <= 0 selects the configured pass bound.
func (s *Server) ScrubPass(limit int64) store.ScrubResult {
	if limit <= 0 {
		limit = s.cfg.ScrubBytes
		if limit <= 0 {
			limit = defaultScrubBytes
		}
	}
	res := s.chunks.Scrub(limit)
	for _, ref := range res.Quarantined {
		s.cfg.Logf("gos: scrub quarantined corrupt chunk %s", ref.Short())
	}

	threshold := s.drainAfter()
	var drain, undrain bool
	s.healthMu.Lock()
	s.scrubBad += len(res.Quarantined)
	s.wrapBad += len(res.Quarantined)
	if threshold > 0 && !s.drained && s.scrubBad >= threshold {
		s.drained = true
		drain = true
	}
	if res.Wrapped {
		if s.drained && s.wrapBad == 0 && s.chunks.Lost() == 0 {
			// The whole store verified clean and every quarantined ref
			// healed: the replica is trustworthy again.
			s.drained = false
			s.scrubBad = 0
			undrain = true
		}
		s.wrapBad = 0
	}
	s.healthMu.Unlock()

	if drain {
		s.setDrain(true)
	}
	if undrain {
		s.setDrain(false)
	}
	return res
}

// Drained reports whether this server has drained its replicas out of
// location-service lookups.
func (s *Server) Drained() bool {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.drained
}

// setDrain tells the location service to hide (or restore) every
// contact address at this server's replica endpoint. With a
// registration session the bit rides the next batched renewal
// (ServerSession.Drain) — no per-subnode fan-out; sessionless servers
// fall back to the OpDrain compatibility shim.
func (s *Server) setDrain(draining bool) {
	var err error
	if s.sess != nil {
		_, err = s.sess.Drain(draining)
	} else {
		_, err = s.cfg.Runtime.Resolver().Drain(s.disp.Addr(), draining)
	}
	if err != nil {
		s.cfg.Logf("gos: drain(%v) %s: %v", draining, s.disp.Addr(), err)
		return
	}
	if draining {
		s.cfg.Logf("gos: store chronically corrupt; drained %s from location lookups", s.disp.Addr())
	} else {
		s.cfg.Logf("gos: store healed; undrained %s", s.disp.Addr())
	}
}

// Addr returns the command endpoint address.
func (s *Server) Addr() string { return s.cfg.CmdAddr }

// ObjAddr returns the replica-traffic endpoint address.
func (s *Server) ObjAddr() string { return s.disp.Addr() }

// Hosted returns the number of replicas this server runs.
func (s *Server) Hosted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// HostedLR returns the local representative for an object, if hosted.
// Experiments use it to reach protocol statistics.
func (s *Server) HostedLR(oid ids.OID) (*core.LR, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.objects[oid]
	if !ok {
		return nil, false
	}
	return h.lr, true
}

// Close stops the server without deregistering replicas — the behaviour
// of a crash or an abrupt reboot. Checkpoints and location-service
// registrations survive (the registration session simply stops being
// renewed and ages out with its entries), which is what recovery
// builds on.
func (s *Server) Close() error {
	if s.stopHeartbeat != nil {
		s.stopHeartbeat()
	}
	if s.stopScrub != nil {
		s.stopScrub()
	}
	err := s.cmd.Close()
	if derr := s.disp.Close(); err == nil {
		err = derr
	}
	s.mu.Lock()
	s.closing = true
	objects := s.objects
	s.objects = make(map[ids.OID]*hosted)
	s.mu.Unlock()
	for _, h := range objects {
		h.lr.Close()
	}
	if s.ckptLog != nil {
		s.ckptLogClose.Do(func() {
			if cerr := s.ckptLog.Close(); err == nil {
				err = cerr
			}
		})
	}
	return err
}

// Shutdown checkpoints every replica, then closes. This is the orderly
// reboot path of §4.
func (s *Server) Shutdown() error {
	if err := s.CheckpointAll(); err != nil {
		return err
	}
	return s.Close()
}

func (s *Server) handle(call *rpc.Call) ([]byte, error) {
	if err := s.authorize(call); err != nil {
		return nil, err
	}
	switch call.Op {
	case OpCreateReplica:
		return s.handleCreate(call)
	case OpRemoveReplica:
		return s.handleRemove(call)
	case OpListReplicas:
		return s.handleList()
	case OpCheckpoint:
		return nil, s.CheckpointAll()
	case OpPutChunks:
		return s.handlePutChunks(call)
	case OpChunkHave:
		return s.handleChunkHave(call)
	case OpServerInfo:
		w := wire.NewWriter(64)
		w.Str(s.cfg.Site)
		w.Str(s.disp.Addr())
		w.Uint32(uint32(s.Hosted()))
		return w.Bytes(), nil
	default:
		return nil, fmt.Errorf("gos: unknown op %d", call.Op)
	}
}

// authorize admits only moderators and administrators to the command
// endpoint (§6.1: "A Globe Object Server should accept only commands
// sent by a GDN moderator"). Fellow object servers are admitted too:
// replica-creation fan-out may be delegated.
func (s *Server) authorize(call *rpc.Call) error {
	if s.cfg.Auth == nil {
		return nil
	}
	if !sec.HasRole(call.Peer, sec.RoleModerator, sec.RoleAdmin, sec.RoleGOS) {
		return fmt.Errorf("%w: peer %q may not command this object server", sec.ErrUnauthorized, call.Peer)
	}
	return nil
}

// Chunks exposes the server's content store; tests and experiments
// inspect it.
func (s *Server) Chunks() *store.Store { return s.chunks }

// handleChunkHave answers the upload negotiation: refs in, the subset
// missing from the server's store out.
func (s *Server) handleChunkHave(call *rpc.Call) ([]byte, error) {
	refs, err := core.DecodeRefs(call.Body, core.ChunkHaveMaxRefs)
	if err != nil {
		return nil, err
	}
	return core.EncodeRefs(s.chunks.Missing(refs)), nil
}

// handlePutChunks stores uploaded content chunks, verifying each
// against its claimed content address — a moderator cannot be
// spoofed into serving bytes that do not hash to their name, and
// uploading a chunk the server already has is a no-op (dedup).
// Streamed uploads carry one raw chunk per data frame (the content
// address is recomputed on arrival); unary batches carry claimed
// (ref, bytes) pairs.
func (s *Server) handlePutChunks(call *rpc.Call) ([]byte, error) {
	if ur := call.Upload(); ur != nil {
		return nil, s.chunks.Ingest(ur)
	}
	r := wire.NewReader(call.Body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		ref := store.Ref(r.Hash())
		data := r.Bytes32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := s.chunks.PutRef(ref, data); err != nil {
			return nil, err
		}
	}
	return nil, r.Done()
}

// CreateRequest is the body of OpCreateReplica.
type CreateRequest struct {
	// OID is the object to replicate; nil creates a new object.
	OID ids.OID
	// Impl, Protocol, Role and Params mirror core.ReplicaSpec.
	Impl     string
	Protocol string
	Role     string
	Params   map[string]string
	// Peers are contact addresses of existing representatives.
	Peers []gls.ContactAddress
	// InitState seeds the new replica's semantics state; nil leaves it
	// empty (or lets the protocol fetch it from peers).
	InitState []byte
}

// Encode serializes the request.
func (cr CreateRequest) Encode() []byte {
	w := wire.NewWriter(256)
	w.OID(cr.OID)
	w.Str(cr.Impl)
	w.Str(cr.Protocol)
	w.Str(cr.Role)
	keys := make([]string, 0, len(cr.Params))
	for k := range cr.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Count(len(keys))
	for _, k := range keys {
		w.Str(k)
		w.Str(cr.Params[k])
	}
	w.Bytes32(gls.EncodeAddrs(cr.Peers))
	if cr.InitState == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		w.Bytes32(cr.InitState)
	}
	return w.Bytes()
}

func decodeCreateRequest(b []byte) (CreateRequest, error) {
	r := wire.NewReader(b)
	var cr CreateRequest
	cr.OID = r.OID()
	cr.Impl = r.Str()
	cr.Protocol = r.Str()
	cr.Role = r.Str()
	n := r.Count()
	if r.Err() != nil {
		return CreateRequest{}, r.Err()
	}
	if n > 0 {
		cr.Params = make(map[string]string, n)
	}
	for i := 0; i < n; i++ {
		k := r.Str()
		cr.Params[k] = r.Str()
	}
	peerBytes := r.Bytes32()
	hasState := r.Bool()
	if hasState {
		cr.InitState = append([]byte(nil), r.Bytes32()...)
	}
	if err := r.Done(); err != nil {
		return CreateRequest{}, err
	}
	peers, err := gls.DecodeAddrs(peerBytes)
	if err != nil {
		return CreateRequest{}, err
	}
	cr.Peers = peers
	return cr, nil
}

func (s *Server) handleCreate(call *rpc.Call) ([]byte, error) {
	req, err := decodeCreateRequest(call.Body)
	if err != nil {
		return nil, err
	}
	oid, ca, cost, err := s.create(req)
	call.Charge(cost)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(96)
	w.OID(oid)
	w.Bytes32(gls.EncodeAddrs([]gls.ContactAddress{ca}))
	return w.Bytes(), nil
}

// create constructs, registers and checkpoints one replica.
func (s *Server) create(req CreateRequest) (oid ids.OID, ca gls.ContactAddress, cost time.Duration, err error) {
	oid = req.OID
	if oid.IsNil() {
		// First replica of a new object: the identifier is allocated as
		// part of registration (§6.1); the resolver library draws it.
		oid = ids.New()
	}
	s.mu.Lock()
	_, exists := s.objects[oid]
	s.mu.Unlock()
	if exists {
		return ids.Nil, gls.ContactAddress{}, 0, fmt.Errorf("gos: already hosting a replica of %s", oid.Short())
	}

	spec := core.ReplicaSpec{
		OID:       oid,
		Impl:      req.Impl,
		Protocol:  req.Protocol,
		Role:      req.Role,
		Params:    req.Params,
		Peers:     req.Peers,
		InitState: req.InitState,
		Store:     s.chunks,
	}
	lr, ca, err := s.cfg.Runtime.NewReplica(spec, s.disp)
	if err != nil {
		return ids.Nil, gls.ContactAddress{}, 0, err
	}

	insCost, err := s.register(oid, ca)
	if err != nil {
		lr.Close()
		return ids.Nil, gls.ContactAddress{}, insCost, fmt.Errorf("gos: register %s: %w", oid.Short(), err)
	}

	h := &hosted{lr: lr, spec: spec, ca: ca}
	s.mu.Lock()
	s.objects[oid] = h
	s.mu.Unlock()

	if err := s.checkpoint(h); err != nil {
		s.cfg.Logf("gos: checkpoint %s: %v", oid.Short(), err)
	}
	return oid, ca, insCost, nil
}

func (s *Server) handleRemove(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	oid := r.OID()
	if err := r.Done(); err != nil {
		return nil, err
	}

	s.mu.Lock()
	h, ok := s.objects[oid]
	delete(s.objects, oid)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gos: not hosting %s", oid.Short())
	}

	cost, err := s.deregister(oid)
	call.Charge(cost)
	if err != nil {
		s.cfg.Logf("gos: deregister %s: %v", oid.Short(), err)
	}
	h.lr.Close()
	s.removeCheckpoint(oid)
	return nil, nil
}

// ReplicaInfo describes one hosted replica in list responses.
type ReplicaInfo struct {
	OID      ids.OID
	Impl     string
	Protocol string
	Role     string
}

func (s *Server) handleList() ([]byte, error) {
	s.mu.Lock()
	infos := make([]ReplicaInfo, 0, len(s.objects))
	for oid, h := range s.objects {
		infos = append(infos, ReplicaInfo{OID: oid, Impl: h.spec.Impl, Protocol: h.spec.Protocol, Role: h.spec.Role})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return ids.Compare(infos[i].OID, infos[j].OID) < 0 })

	w := wire.NewWriter(64 * len(infos))
	w.Count(len(infos))
	for _, info := range infos {
		w.OID(info.OID)
		w.Str(info.Impl)
		w.Str(info.Protocol)
		w.Str(info.Role)
	}
	return w.Bytes(), nil
}

// --- persistence -----------------------------------------------------

// checkpointName is the stable file name for one replica's checkpoint.
func (s *Server) checkpointName(oid ids.OID) string {
	return filepath.Join(s.cfg.StateDir, oid.String()+".replica")
}

// CheckpointAll writes every hosted replica's state to the state
// directory.
func (s *Server) CheckpointAll() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	s.mu.Lock()
	hs := make([]*hosted, 0, len(s.objects))
	for _, h := range s.objects {
		hs = append(hs, h)
	}
	s.mu.Unlock()
	for _, h := range hs {
		if err := s.checkpoint(h); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint writes one replica's spec and current state durably, as
// one frame appended to the checkpoint log (batched write + fsync).
// The state is a manifest into the server's chunk store, so
// checkpointing a huge package appends a few kilobytes of manifest —
// the chunks are already durable, written when the content arrived.
// The refs the manifest names are pinned in the store until this
// checkpoint is superseded, so they survive any live-state churn in
// between.
func (s *Server) checkpoint(h *hosted) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	// A write landing between MarshalState and Retain can release (and,
	// in plain mode, delete) a chunk the freshly marshalled manifest
	// references; the Retain then fails. The state that replaced it is
	// just as good a checkpoint, so re-marshal and try again.
	for attempt := 0; ; attempt++ {
		state, err := h.lr.Semantics().MarshalState()
		if err != nil {
			return fmt.Errorf("gos: marshal %s: %w", h.spec.OID.Short(), err)
		}
		// Pin the new manifest's chunks before the file becomes the
		// checkpoint, so there is no instant where the on-disk manifest
		// references unpinned chunks.
		refs, err := stateRefsOf(h.lr.Semantics(), state)
		if err != nil {
			return fmt.Errorf("gos: checkpoint refs %s: %w", h.spec.OID.Short(), err)
		}
		if err := s.chunks.Retain(refs); err != nil {
			if errors.Is(err, store.ErrMissing) && attempt < 5 {
				continue
			}
			return fmt.Errorf("gos: pin checkpoint %s: %w", h.spec.OID.Short(), err)
		}

		w := wire.NewWriter(256 + len(state))
		w.OID(h.spec.OID)
		w.Str(h.spec.Impl)
		w.Str(h.spec.Protocol)
		w.Str(h.spec.Role)
		keys := make([]string, 0, len(h.spec.Params))
		for k := range h.spec.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Count(len(keys))
		for _, k := range keys {
			w.Str(k)
			w.Str(h.spec.Params[k])
		}
		w.Bytes32(gls.EncodeAddrs(h.spec.Peers))
		w.Bytes32(state)

		if err := s.appendCheckpoint(h.spec.OID, w.Bytes()); err != nil {
			s.chunks.Release(refs)
			return err
		}
		// The log frame supersedes any legacy per-replica file from an
		// older server; retire it so recovery cannot resurrect stale
		// state after a later tombstone.
		os.Remove(s.checkpointName(h.spec.OID))
		s.mu.Lock()
		if s.objects[h.spec.OID] != h && !s.closing {
			// The replica was removed while we checkpointed; a durable
			// image would resurrect it on the next reboot. Undo with a
			// tombstone. (On server close the map is emptied too, but
			// there the image must survive — that is the crash-recovery
			// contract.)
			s.mu.Unlock()
			s.appendTombstone(h.spec.OID)
			s.chunks.Release(refs)
			return nil
		}
		old := s.pins[h.spec.OID]
		s.pins[h.spec.OID] = refs
		s.mu.Unlock()
		s.chunks.Release(old)
		s.maybeCompactCkptLog()
		return nil
	}
}

// stateRefsOf parses the chunk refs out of a marshalled state when
// the semantics chunks its content; nil refs otherwise.
func stateRefsOf(sem core.Semantics, state []byte) ([]store.Ref, error) {
	cs, ok := sem.(core.ChunkedState)
	if !ok {
		return nil, nil
	}
	return cs.StateRefs(state)
}

func (s *Server) removeCheckpoint(oid ids.OID) {
	if s.cfg.StateDir == "" {
		return
	}
	os.Remove(s.checkpointName(oid))
	s.appendTombstone(oid)
	s.mu.Lock()
	refs := s.pins[oid]
	delete(s.pins, oid)
	s.mu.Unlock()
	s.chunks.Release(refs)
}

// Checkpoint-log frame kinds: an image frame carries a full replica
// checkpoint (spec + state manifest), a tombstone retracts every
// earlier image for its object.
const (
	ckptImage     = uint8(1)
	ckptTombstone = uint8(2)
)

// ckptLogName is the append-only checkpoint log all replicas share.
func (s *Server) ckptLogName() string {
	return filepath.Join(s.cfg.StateDir, "checkpoints.log")
}

// ckptCompactMin is the smallest checkpoint log worth compacting.
const ckptCompactMin = 1 << 20

// appendCheckpoint appends one image frame and makes it durable.
func (s *Server) appendCheckpoint(oid ids.OID, img []byte) error {
	s.ckptLogMu.Lock()
	defer s.ckptLogMu.Unlock()
	if s.ckptLog == nil {
		return fmt.Errorf("gos: checkpoint log closed")
	}
	p := make([]byte, 1+len(img))
	p[0] = ckptImage
	copy(p[1:], img)
	s.ckptLog.Append(p)
	if _, err := s.ckptLog.Flush(); err != nil {
		return fmt.Errorf("gos: checkpoint append %s: %w", oid.Short(), err)
	}
	s.mu.Lock()
	s.ckptImages[oid] = img
	s.mu.Unlock()
	return nil
}

// appendTombstone retracts an object's checkpoints from the log.
// Best-effort: a tombstone that fails to flush costs one resurrected
// replica on the next reboot, which the moderator can remove again.
func (s *Server) appendTombstone(oid ids.OID) {
	s.ckptLogMu.Lock()
	defer s.ckptLogMu.Unlock()
	if s.ckptLog == nil {
		return
	}
	p := make([]byte, 1+ids.Size)
	p[0] = ckptTombstone
	copy(p[1:], oid[:])
	s.ckptLog.Append(p)
	if _, err := s.ckptLog.Flush(); err != nil {
		s.cfg.Logf("gos: checkpoint tombstone %s: %v", oid.Short(), err)
	}
	s.mu.Lock()
	delete(s.ckptImages, oid)
	s.mu.Unlock()
}

// maybeCompactCkptLog folds the checkpoint log down to the latest
// image per live object once superseded frames dominate it. Holding
// ckptLogMu across the scan-and-rewrite keeps concurrent appends from
// being dropped by the Rewrite.
func (s *Server) maybeCompactCkptLog() {
	s.ckptLogMu.Lock()
	defer s.ckptLogMu.Unlock()
	if s.ckptLog == nil {
		return
	}
	// All ckptImages writers hold ckptLogMu, so the map is stable for
	// the duration of the scan; mu still covers the reads.
	s.mu.Lock()
	live := int64(0)
	for _, img := range s.ckptImages {
		live += int64(len(img)) + 16
	}
	s.mu.Unlock()
	threshold := 2 * live
	if threshold < ckptCompactMin {
		threshold = ckptCompactMin
	}
	if s.ckptLog.Size()+int64(s.ckptLog.Buffered()) <= threshold {
		return
	}
	s.mu.Lock()
	payloads := make([][]byte, 0, len(s.ckptImages))
	for _, img := range s.ckptImages {
		p := make([]byte, 1+len(img))
		p[0] = ckptImage
		copy(p[1:], img)
		payloads = append(payloads, p)
	}
	s.mu.Unlock()
	if err := s.ckptLog.Rewrite(payloads); err != nil {
		s.cfg.Logf("gos: compact checkpoint log: %v", err)
	}
}

// rolePriority orders recovery so state-holding roles come up before
// the roles that fetch state from them.
func rolePriority(role string) int {
	switch role {
	case "server", "master", "sequencer", "":
		return 0
	default:
		return 1
	}
}

// recover reconstructs replicas from the state directory and
// re-registers their contact addresses with the location service (§4).
// Legacy per-replica files are read first, then the checkpoint log is
// replayed over them: the last frame per object wins, and a tombstone
// retracts the object entirely.
func (s *Server) recover() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o700); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return err
	}

	images := make(map[ids.OID][]byte)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".replica") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.cfg.StateDir, e.Name()))
		if err != nil {
			return err
		}
		spec, err := decodeCheckpoint(b)
		if err != nil {
			return fmt.Errorf("gos: checkpoint %s: %w", e.Name(), err)
		}
		images[spec.OID] = b
	}

	lg, err := walog.Open(s.ckptLogName(), func(p []byte) error {
		if len(p) < 1 {
			return fmt.Errorf("empty checkpoint frame")
		}
		switch p[0] {
		case ckptImage:
			img := append([]byte(nil), p[1:]...)
			r := wire.NewReader(img)
			oid := r.OID()
			if r.Err() != nil {
				return fmt.Errorf("checkpoint frame: %w", r.Err())
			}
			images[oid] = img
		case ckptTombstone:
			oid, err := ids.FromBytes(p[1:])
			if err != nil {
				return fmt.Errorf("tombstone frame: %w", err)
			}
			delete(images, oid)
		default:
			return fmt.Errorf("unknown checkpoint frame kind %d", p[0])
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("gos: open checkpoint log: %w", err)
	}
	s.ckptLog = lg
	s.ckptImages = images

	type pending struct {
		spec core.ReplicaSpec
	}
	var specs []pending
	for oid, b := range images {
		spec, err := decodeCheckpoint(b)
		if err != nil {
			return fmt.Errorf("gos: checkpoint %s: %w", oid.Short(), err)
		}
		specs = append(specs, pending{spec: spec})
	}
	sort.SliceStable(specs, func(i, j int) bool {
		return rolePriority(specs[i].spec.Role) < rolePriority(specs[j].spec.Role)
	})

	for _, p := range specs {
		p.spec.Store = s.chunks
		lr, ca, err := s.cfg.Runtime.NewReplica(p.spec, s.disp)
		if err != nil {
			return fmt.Errorf("gos: recover %s: %w", p.spec.OID.Short(), err)
		}
		if _, err := s.register(p.spec.OID, ca); err != nil {
			lr.Close()
			return fmt.Errorf("gos: re-register %s: %w", p.spec.OID.Short(), err)
		}
		// Re-pin the surviving checkpoint's refs so the durable image
		// keeps protecting its chunks until the next checkpoint.
		refs, err := stateRefsOf(lr.Semantics(), p.spec.InitState)
		if err == nil && refs != nil {
			if err := s.chunks.Retain(refs); err == nil {
				s.mu.Lock()
				s.pins[p.spec.OID] = refs
				s.mu.Unlock()
			}
		}
		s.mu.Lock()
		s.objects[p.spec.OID] = &hosted{lr: lr, spec: p.spec, ca: ca}
		s.mu.Unlock()
		s.cfg.Logf("gos: recovered replica %s (%s/%s)", p.spec.OID.Short(), p.spec.Protocol, p.spec.Role)
	}
	// Everything the recovered manifests reference is now retained;
	// whatever remains unreferenced is an orphan a crash left behind
	// (content written but never checkpointed). Reclaim it.
	if chunks, bytes := s.chunks.Sweep(); chunks > 0 {
		s.cfg.Logf("gos: swept %d orphaned chunks (%d bytes)", chunks, bytes)
	}
	return nil
}

func decodeCheckpoint(b []byte) (core.ReplicaSpec, error) {
	r := wire.NewReader(b)
	var spec core.ReplicaSpec
	spec.OID = r.OID()
	spec.Impl = r.Str()
	spec.Protocol = r.Str()
	spec.Role = r.Str()
	n := r.Count()
	if r.Err() != nil {
		return core.ReplicaSpec{}, r.Err()
	}
	if n > 0 {
		spec.Params = make(map[string]string, n)
	}
	for i := 0; i < n; i++ {
		k := r.Str()
		spec.Params[k] = r.Str()
	}
	peerBytes := r.Bytes32()
	state := r.Bytes32()
	if err := r.Done(); err != nil {
		return core.ReplicaSpec{}, err
	}
	peers, err := gls.DecodeAddrs(peerBytes)
	if err != nil {
		return core.ReplicaSpec{}, err
	}
	spec.Peers = peers
	spec.InitState = append([]byte(nil), state...)
	return spec, nil
}
