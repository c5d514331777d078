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
	"path/filepath"
	"sort"
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
	// by content address. It is an upload-stream call (one chunk per
	// data frame) and each chunk's address is computed on arrival; a
	// unary call is refused.
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
	// service resolver used for registration; both are required.
	Runtime *core.Runtime
	// StateDir is the checkpoint directory; "" disables persistence.
	StateDir string
	// ScrubEvery is the interval between background scrubbing passes
	// over the disk chunk store (persistent servers only). 0 selects a
	// default; negative disables scrubbing.
	ScrubEvery time.Duration
	// LeaseTTL is the lifetime of this server's registration session
	// with the location service. Every hosted replica is attached to
	// the one session, and a heartbeat (a third of the TTL) renews them
	// all with a single batched call per leaf subnode — renewal traffic
	// is O(servers), not O(replicas) — so entries stay live while the
	// server does and age out of lookups within one TTL of a crash: the
	// location layer stops advertising dead replicas. A value <= 0
	// selects the default (30s).
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
	// ready is closed once the create command that made this replica
	// has attached and checkpointed it, or given up; nil for a
	// recovered replica. A remove that takes the replica meanwhile
	// waits for it, so its detach and checkpoint delete come after the
	// create's attach and checkpoint put.
	ready chan struct{}
	// ckptMu serializes checkpoints of this replica: concurrent
	// OpCheckpoint commands could otherwise interleave the table Put
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

	// stopHeartbeat halts the session-renewal loop.
	stopHeartbeat func()
	// sess is the registration session every hosted replica's contact
	// address is attached to.
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

	// ckpts is the durable checkpoint table, keyed by OID: each
	// checkpoint is one appended frame instead of a whole-file rewrite,
	// and checkpointing N replicas costs N appends of one fsync each.
	// Nil when StateDir is unset.
	ckpts *walog.Table
}

// Start launches an object server and recovers any replicas found in
// its state directory, re-registering their contact addresses.
func Start(net transport.Network, cfg Config) (*Server, error) {
	if cfg.Runtime == nil || cfg.Runtime.Resolver() == nil {
		return nil, fmt.Errorf("gos: config needs a runtime with a location-service resolver")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		net:     net,
		objects: make(map[ids.OID]*hosted),
		pins:    make(map[ids.OID][]store.Ref),
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
	sess, _, err := cfg.Runtime.Resolver().OpenSession(disp.Addr(), s.leaseTTL())
	if err != nil {
		disp.Close()
		return nil, fmt.Errorf("gos: open registration session: %w", err)
	}
	s.sess = sess

	// Recover before the command endpoint opens: the recovery sweep
	// reclaims every unreferenced chunk, and a moderator upload
	// accepted mid-recovery would be unreferenced by definition.
	opts := []rpc.ServerOption{rpc.WithServerLog(cfg.Logf)}
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithServerWrapper(cfg.Auth.WrapServer))
	}
	if err = s.recover(); err == nil {
		s.cmd, err = rpc.Serve(net, cfg.CmdAddr, s.handle, opts...)
	}
	if err != nil {
		disp.Close()
		for _, h := range s.objects {
			h.lr.Close()
		}
		if s.ckpts != nil {
			s.ckpts.Close()
		}
		return nil, err
	}

	// Background scrubbing re-verifies the durable chunks this server
	// is trusted to serve; a quarantined chunk is refetched by the next
	// state transfer that needs it (repair by delta sync). Scrub
	// results feed the location service: chronic corruption drains
	// this server's replicas out of lookups until the store heals.
	if cfg.StateDir != "" {
		s.chunks.StartScrubber(cfg.ScrubEvery, s.scrubbed)
	}

	// Heartbeat: renew the registration session at a third of the lease
	// TTL, so every attached registration stays live exactly as long as
	// the server does.
	s.stopHeartbeat = s.startHeartbeat(s.leaseTTL() / 3)
	return s, nil
}

// leaseTTL returns the effective registration-session TTL.
func (s *Server) leaseTTL() time.Duration {
	if s.cfg.LeaseTTL <= 0 {
		return defaultLeaseTTL
	}
	return s.cfg.LeaseTTL
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
	if _, err := s.sess.Renew(); err != nil {
		s.cfg.Logf("gos: renew registration session: %v", err)
	}
}

// ScrubPass runs one scrub pass of the background scrubber's size and
// applies its result as the background scrubber does; tests call it
// directly.
func (s *Server) ScrubPass() store.ScrubResult {
	res := s.chunks.Scrub(store.DefaultScrubBytes)
	s.scrubbed(res)
	return res
}

// scrubbed logs a scrub pass's quarantines and applies the drain
// policy: crossing the chronic-corruption threshold drains this
// server's replicas out of location-service lookups; a full wrap over
// the store with zero corruption and every quarantined ref re-fetched
// undrains them.
func (s *Server) scrubbed(res store.ScrubResult) {
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
}

// Drained reports whether this server has drained its replicas out of
// location-service lookups.
func (s *Server) Drained() bool {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return s.drained
}

// setDrain tells the location service to hide (or restore) every
// contact address at this server's replica endpoint. The bit rides
// the registration session's batched renewal (ServerSession.Drain).
func (s *Server) setDrain(draining bool) {
	if _, err := s.sess.Drain(draining); err != nil {
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
	s.stopHeartbeat()
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
	if s.ckpts != nil {
		if cerr := s.ckpts.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.chunks.Close(); err == nil {
		err = cerr
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
		return core.ServeChunkPut(s.chunks, call)
	case OpChunkHave:
		return core.ServeChunkHave(s.chunks, call)
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
		cr.InitState = append([]byte{}, r.Bytes32()...) // an empty seed stays non-nil
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

// create constructs, registers and checkpoints one replica. A failed
// attach or checkpoint fails the create and leaves no registration,
// checkpoint, pin or hosted entry behind; so does a remove that takes
// the replica before the create finishes.
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

	// Hosted from here on, so the checkpoint can tell whether a remove
	// took the replica before its put; the attach and the checkpoint
	// run concurrently, and the create is acknowledged after both.
	h := &hosted{lr: lr, spec: spec, ca: ca, ready: make(chan struct{})}
	defer close(h.ready)
	s.mu.Lock()
	s.objects[oid] = h
	s.mu.Unlock()
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.checkpoint(h) }()
	_, cost, err = s.sess.Attach(oid, ca)
	if err != nil {
		err = fmt.Errorf("gos: register %s: %w", oid.Short(), err)
	}
	err = errors.Join(err, <-ckpt)

	s.mu.Lock()
	owner := s.objects[oid] == h
	if err != nil && owner {
		delete(s.objects, oid)
	}
	s.mu.Unlock()
	switch {
	case !owner:
		// A remove (which retires the replica once ready closes) or
		// the server's Close took it.
		return ids.Nil, gls.ContactAddress{}, cost, errors.Join(err, fmt.Errorf("gos: %s was removed before its create finished", oid.Short()))
	case err != nil:
		return ids.Nil, gls.ContactAddress{}, cost + s.retire(h), err
	}
	return oid, ca, cost, nil
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
	if h.ready != nil {
		<-h.ready
	}
	call.Charge(s.retire(h))
	return nil, nil
}

// retire deregisters a replica this server no longer hosts and
// retracts its checkpoint, the two concurrently, and closes the
// replica once it is deregistered. It returns the deregistration's
// cost; a failed detach is logged, and the next session renewal's
// repair removes the entry.
func (s *Server) retire(h *hosted) time.Duration {
	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		s.removeCheckpoint(h.spec.OID)
	}()
	cost, err := s.sess.Detach(h.spec.OID)
	if err != nil {
		s.cfg.Logf("gos: deregister %s: %v", h.spec.OID.Short(), err)
	}
	h.lr.Close()
	<-deleted
	return cost
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

// CheckpointAll writes every hosted replica's state to the state
// directory: one table Put, and so one fsync, per replica.
func (s *Server) CheckpointAll() error {
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
// one Put into the checkpoint table (one write + one fsync).
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

		if err := s.ckpts.Put(string(h.spec.OID[:]), w.Bytes()); err != nil {
			s.chunks.Release(refs)
			return fmt.Errorf("gos: checkpoint %s: %w", h.spec.OID.Short(), err)
		}
		s.mu.Lock()
		if s.objects[h.spec.OID] != h && !s.closing {
			// The replica was removed while we checkpointed; a durable
			// image would resurrect it on the next reboot. Undo it. (On
			// server close the map is emptied too, but there the image
			// must survive — that is the crash-recovery contract.)
			s.mu.Unlock()
			s.deleteCheckpoint(h.spec.OID)
			s.chunks.Release(refs)
			return nil
		}
		old := s.pins[h.spec.OID]
		s.pins[h.spec.OID] = refs
		s.mu.Unlock()
		s.chunks.Release(old)
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
	s.deleteCheckpoint(oid)
	s.mu.Lock()
	refs := s.pins[oid]
	delete(s.pins, oid)
	s.mu.Unlock()
	s.chunks.Release(refs)
}

// deleteCheckpoint retracts an object's checkpoint. Best-effort: a
// delete that fails costs one resurrected replica on the next reboot,
// which the moderator can remove again.
func (s *Server) deleteCheckpoint(oid ids.OID) {
	if err := s.ckpts.Delete(string(oid[:])); err != nil {
		s.cfg.Logf("gos: delete checkpoint %s: %v", oid.Short(), err)
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
// The checkpoint table, next to the chunk store in StateDir, holds the
// latest image of every replica not removed since.
func (s *Server) recover() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	tab, err := walog.OpenTable(filepath.Join(s.cfg.StateDir, "checkpoints.log"), "gdn-gos checkpoints")
	if err != nil {
		return fmt.Errorf("gos: open checkpoint table: %w", err)
	}
	s.ckpts = tab

	var specs []core.ReplicaSpec
	for _, b := range tab.Live() {
		spec, err := decodeCheckpoint(b)
		if err != nil {
			return fmt.Errorf("gos: checkpoint: %w", err)
		}
		specs = append(specs, spec)
	}
	sort.SliceStable(specs, func(i, j int) bool {
		return rolePriority(specs[i].Role) < rolePriority(specs[j].Role)
	})

	for _, spec := range specs {
		spec.Store = s.chunks
		lr, ca, err := s.cfg.Runtime.NewReplica(spec, s.disp)
		if err != nil {
			return fmt.Errorf("gos: recover %s: %w", spec.OID.Short(), err)
		}
		if _, _, err := s.sess.Attach(spec.OID, ca); err != nil {
			lr.Close()
			return fmt.Errorf("gos: re-register %s: %w", spec.OID.Short(), err)
		}
		// Re-pin the surviving checkpoint's refs so the durable image
		// keeps protecting its chunks until the next checkpoint.
		refs, err := stateRefsOf(lr.Semantics(), spec.InitState)
		if err == nil && refs != nil {
			if err := s.chunks.Retain(refs); err == nil {
				s.mu.Lock()
				s.pins[spec.OID] = refs
				s.mu.Unlock()
			}
		}
		s.mu.Lock()
		s.objects[spec.OID] = &hosted{lr: lr, spec: spec, ca: ca}
		s.mu.Unlock()
		s.cfg.Logf("gos: recovered replica %s (%s/%s)", spec.OID.Short(), spec.Protocol, spec.Role)
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
