package repl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// Protocol names.
const (
	Local        = "local"
	ClientServer = "clientserver"
	MasterSlave  = "masterslave"
	Active       = "active"
	Cache        = "cache"
)

// Roles within protocols.
const (
	RoleServer    = "server"
	RoleMaster    = "master"
	RoleSlave     = "slave"
	RoleSequencer = "sequencer"
	RolePeer      = "peer"
	RoleCache     = "cache"
)

// RegisterAll installs every protocol in a registry.
func RegisterAll(reg *core.Registry) {
	reg.RegisterProtocol(LocalProtocol())
	reg.RegisterProtocol(ClientServerProtocol())
	reg.RegisterProtocol(MasterSlaveProtocol())
	reg.RegisterProtocol(ActiveProtocol())
	reg.RegisterProtocol(CacheProtocol())
}

// writeRoles are the principal roles allowed to perform state-modifying
// operations when a deployment runs with security (paper §6.1:
// authorized senders are moderator tools and GDN object servers).
var writeRoles = []string{sec.RoleModerator, sec.RoleAdmin, sec.RoleGOS}

// authorizeWrite admits a state-modifying message. Unsecured
// deployments (env.Auth == nil) admit everyone. Beyond the global
// write roles, a peer with the maintainer role is admitted when the
// object's replication scenario names it in the "maintainers"
// parameter — the paper's fourth group, which "is allowed to manage
// just the contents of a package" (§2).
func authorizeWrite(env *core.Env, call *rpc.Call) error {
	if env.Auth == nil {
		return nil
	}
	if sec.HasRole(call.Peer, writeRoles...) {
		return nil
	}
	if sec.RoleOf(call.Peer) == sec.RoleMaintainer && maintainerListed(env, call.Peer) {
		return nil
	}
	return fmt.Errorf("%w: peer %q may not modify object %s",
		sec.ErrUnauthorized, call.Peer, env.OID.Short())
}

// maintainerListed reports whether the scenario's comma-separated
// "maintainers" parameter names the principal.
func maintainerListed(env *core.Env, principal string) bool {
	for _, m := range strings.Split(env.Param("maintainers", ""), ",") {
		if m != "" && m == principal {
			return true
		}
	}
	return false
}

// subscriber is a peer representative that asked to be kept consistent.
type subscriber struct {
	addr string
	role string
}

// replicaBase carries the bookkeeping every hosted replica shares:
// a state version and the subscriber set. Peer connections belong to
// the hosting runtime's table (Env.Dial).
type replicaBase struct {
	env *core.Env

	mu      sync.Mutex
	version uint64
	subs    map[string]subscriber // keyed by address
}

func newReplicaBase(env *core.Env) *replicaBase {
	return &replicaBase{
		env:  env,
		subs: make(map[string]subscriber),
	}
}

// bumpVersion marks the state as changed and returns the new version.
func (rb *replicaBase) bumpVersion() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.version++
	return rb.version
}

// setVersion records the version received with pushed state.
func (rb *replicaBase) setVersion(v uint64) {
	rb.mu.Lock()
	rb.version = v
	rb.mu.Unlock()
}

// currentVersion reads the state version.
func (rb *replicaBase) currentVersion() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.version
}

// addSubscriber registers a peer for pushes/invalidations.
func (rb *replicaBase) addSubscriber(addr, role string) {
	rb.mu.Lock()
	rb.subs[addr] = subscriber{addr: addr, role: role}
	rb.mu.Unlock()
}

// removeSubscriber drops a registration.
func (rb *replicaBase) removeSubscriber(addr string) {
	rb.mu.Lock()
	delete(rb.subs, addr)
	rb.mu.Unlock()
}

// subscribers snapshots the subscriber set, optionally filtered by role.
func (rb *replicaBase) subscribers(role string) []subscriber {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	out := make([]subscriber, 0, len(rb.subs))
	for _, s := range rb.subs {
		if role == "" || s.role == role {
			out = append(out, s)
		}
	}
	return out
}

// handleCommon serves the operations every replica answers: state
// fetches, chunk fetches, streamed bulk reads and (un)subscriptions.
// It reports whether it handled the op.
func (rb *replicaBase) handleCommon(call *rpc.Call) (handled bool, resp []byte, err error) {
	switch call.Op {
	case core.OpStateGet:
		resp, err = rb.handleStateGet(call)
		return true, resp, err
	case core.OpChunkGet:
		resp, err = rb.handleChunkGet(call)
		return true, resp, err
	case core.OpChunkHave:
		resp, err = rb.handleChunkHave(call)
		return true, resp, err
	case core.OpChunkPut:
		resp, err = rb.handleChunkPut(call)
		return true, resp, err
	case core.OpBulkRead:
		resp, err = rb.handleBulkRead(call)
		return true, resp, err
	case core.OpSubscribe:
		resp, err = rb.handleSubscribe(call, true)
		return true, resp, err
	case core.OpUnsubscribe:
		resp, err = rb.handleSubscribe(call, false)
		return true, resp, err
	default:
		return false, nil, nil
	}
}

// chunkGetMaxBatch bounds one OpChunkGet response: enough chunks to
// amortize the round trip, small enough that no response frame grows
// with package size.
const (
	chunkGetMaxRefs  = 32
	chunkGetMaxBytes = 8 << 20
)

// handleChunkGet serves chunk bytes by ref from the local store — the
// supplier side of delta state transfer. The response may cover a
// prefix of the requested refs (size cap); the caller re-requests the
// rest. Like OpStateGet, it serves reads without write authorization.
func (rb *replicaBase) handleChunkGet(call *rpc.Call) ([]byte, error) {
	if rb.env.Store == nil {
		return nil, fmt.Errorf("repl: %s has no chunk store", rb.env.OID.Short())
	}
	r := wire.NewReader(call.Body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > chunkGetMaxRefs {
		n = chunkGetMaxRefs
	}
	refs := make([]store.Ref, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, r.Hash())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	w := wire.NewWriter(4096)
	sent := 0
	var bytes int64
	var bodies [][]byte
	for _, ref := range refs {
		data, err := rb.env.Store.Get(ref)
		if err != nil {
			return nil, fmt.Errorf("repl: chunk %s: %w", ref.Short(), err)
		}
		if sent > 0 && bytes+int64(len(data)) > chunkGetMaxBytes {
			break
		}
		bodies = append(bodies, data)
		bytes += int64(len(data))
		sent++
	}
	w.Count(sent)
	for _, data := range bodies {
		w.Bytes32(data)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// handleChunkHave answers the which-of-these-do-you-have negotiation:
// refs in, the subset the local store lacks out. Like OpStateGet it
// serves without write authorization — it reveals only which content
// addresses are present, which OpChunkGet already serves by content.
func (rb *replicaBase) handleChunkHave(call *rpc.Call) ([]byte, error) {
	if rb.env.Store == nil {
		return nil, fmt.Errorf("repl: %s has no chunk store", rb.env.OID.Short())
	}
	refs, err := core.DecodeRefs(call.Body, core.ChunkHaveMaxRefs)
	if err != nil {
		return nil, err
	}
	return core.EncodeRefs(rb.env.Store.Missing(refs)), nil
}

// handleChunkPut stores uploaded chunk bodies — the supply side of a
// negotiated bulk write. Every chunk is verified against its content
// address (Put hashes the bytes), so a hostile writer cannot plant
// content under a foreign name; what it can do is limited to what
// AddFile already allows an authorized writer. The call is normally an
// upload stream (one chunk per frame); a unary body carrying a counted
// batch is accepted too.
func (rb *replicaBase) handleChunkPut(call *rpc.Call) ([]byte, error) {
	if err := authorizeWrite(rb.env, call); err != nil {
		return nil, err
	}
	if rb.env.Store == nil {
		return nil, fmt.Errorf("repl: %s has no chunk store", rb.env.OID.Short())
	}
	if ur := call.Upload(); ur != nil {
		return nil, rb.env.Store.Ingest(ur)
	}
	r := wire.NewReader(call.Body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		data := r.Bytes32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if _, err := rb.env.Store.Put(data); err != nil {
			return nil, err
		}
	}
	return nil, r.Done()
}

// relayChunkOps forwards chunk-negotiation traffic (OpChunkHave,
// OpChunkPut) to the upstream representative whose store manifest
// writes actually read — slaves relay to their master, caches to
// their parent. Answering either op from a forwarding replica's own
// store would negotiate against the wrong store: promising chunks the
// write target lacks, or banking uploads where no write will find
// them. Uploads are relayed one frame at a time, so the forwarder
// buffers one chunk, never the transfer. It reports whether it
// handled the op.
func (rb *replicaBase) relayChunkOps(call *rpc.Call, upstream string) (handled bool, resp []byte, err error) {
	switch call.Op {
	case core.OpChunkHave:
		resp, cost, err := rb.env.Dial(upstream).CallT(call.TC, core.OpChunkHave, call.Body)
		call.Charge(cost)
		return true, resp, err
	case core.OpChunkPut:
		resp, err := rb.relayChunkPut(call, upstream)
		return true, resp, err
	default:
		return false, nil, nil
	}
}

func (rb *replicaBase) relayChunkPut(call *rpc.Call, upstream string) ([]byte, error) {
	if err := authorizeWrite(rb.env, call); err != nil {
		return nil, err
	}
	ur := call.Upload()
	if ur == nil {
		// Unary batch shape: forward the body as-is.
		resp, cost, err := rb.env.Dial(upstream).CallT(call.TC, core.OpChunkPut, call.Body)
		call.Charge(cost)
		return resp, err
	}
	us, err := rb.env.Dial(upstream).CallUploadT(call.TC, core.OpChunkPut, nil)
	if err != nil {
		return nil, err
	}
	for {
		data, err := ur.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			us.Cancel()
			return nil, err
		}
		if err := us.Send(data); err != nil {
			// Upstream already answered (an error or teardown); the
			// receive below returns the authoritative result.
			break
		}
	}
	resp, cost, err := us.CloseAndRecv()
	call.Charge(cost)
	return resp, err
}

// missingChunksFrom runs the OpChunkHave negotiation against a remote
// representative in bounded batches.
func missingChunksFrom(pc *core.PeerClient, refs []store.Ref) ([]store.Ref, time.Duration, error) {
	return core.MissingChunksVia(func(body []byte) ([]byte, time.Duration, error) {
		return pc.Call(core.OpChunkHave, body)
	}, refs)
}

// missingChunksVia is missingChunksFrom with peer-set failover: the
// negotiation is a read (it changes nothing), so any candidate that
// answers — or forwards to the write-target replica — will do.
func missingChunksVia(ps *core.PeerSet, refs []store.Ref) ([]store.Ref, time.Duration, error) {
	var missing []store.Ref
	cost, err := ps.Do(false, func(_ string, pc *core.PeerClient) (time.Duration, error) {
		m, c, err := missingChunksFrom(pc, refs)
		if err == nil {
			missing = m
		}
		return c, err
	})
	return missing, cost, err
}

// pushChunksVia ships chunk bodies with peer-set failover. Chunk puts
// are idempotent (content-addressed stores deduplicate), so a transfer
// that died half-way is safely replayed against the next candidate:
// the chunks that already landed become no-ops.
func pushChunksVia(ps *core.PeerSet, chunks [][]byte) (time.Duration, error) {
	return ps.Do(false, func(_ string, pc *core.PeerClient) (time.Duration, error) {
		return pushChunksTo(pc, chunks)
	})
}

// pushChunksTo ships chunk bodies to a remote representative over an
// OpChunkPut upload stream, one chunk per frame — peak buffering stays
// O(chunk) at both ends no matter how much content moves.
func pushChunksTo(pc *core.PeerClient, chunks [][]byte) (time.Duration, error) {
	if len(chunks) == 0 {
		return 0, nil
	}
	us, err := pc.CallUpload(core.OpChunkPut, nil)
	if err != nil {
		return 0, err
	}
	for _, data := range chunks {
		if err := us.Send(data); err != nil {
			// The server already answered (an error, or teardown); the
			// receive below returns the authoritative result.
			break
		}
	}
	_, cost, err := us.CloseAndRecv()
	return cost, err
}

// fillChunks makes every chunk a marshalled state references present
// in the local store, fetching missing ones from the parent replica
// in bounded batches — the receiver side of delta state transfer. On
// an unchanged file only the changed chunks cross the wire.
//
// Every referenced chunk (present or fetched) is pinned before
// fillChunks returns, so a capacity-mode store cannot evict the early
// chunks of a transfer larger than its budget before UnmarshalState
// takes its own pins. The caller must Release the returned refs once
// the state install (successful or not) is done.
func (rb *replicaBase) fillChunks(tc obs.SpanContext, parent *core.PeerClient, state []byte) (pinned []store.Ref, cost time.Duration, err error) {
	st := rb.env.Store
	re, ok := rb.env.Exec.(core.RefExec)
	if st == nil || !ok {
		return nil, 0, nil
	}
	refs, err := re.StateRefs(state)
	if err != nil {
		return nil, 0, fmt.Errorf("repl: parse state refs: %w", err)
	}
	if refs == nil {
		return nil, 0, nil // semantics does not chunk its state
	}

	// Pin what is already resident; collect the rest for fetching.
	var missing []store.Ref
	seen := make(map[store.Ref]bool, len(refs))
	for _, ref := range refs {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		if st.Retain([]store.Ref{ref}) == nil {
			pinned = append(pinned, ref)
		} else {
			missing = append(missing, ref)
		}
	}
	fail := func(err error) ([]store.Ref, time.Duration, error) {
		st.Release(pinned)
		return nil, cost, err
	}

	// Fetch in pipelined batches: while one OpChunkGet response is
	// verified and stored locally, the next request is already on the
	// wire (depth 2 keeps exactly one fetch ahead), so a cache fill
	// pays max(network, hash+disk) per batch instead of their sum. A
	// size-capped short response leaves a remainder; the outer loop
	// replans those refs into fresh batches.
	for len(missing) > 0 {
		var batches [][]store.Ref
		for i := 0; i < len(missing); i += chunkGetMaxRefs {
			batches = append(batches, missing[i:min(i+chunkGetMaxRefs, len(missing))])
		}
		var leftover []store.Ref
		fetch := func(bi int) ([]byte, error) {
			batch := batches[bi]
			w := wire.NewWriter(8 + 32*len(batch))
			w.Count(len(batch))
			for _, ref := range batch {
				w.Hash(ref)
			}
			resp, c, err := parent.CallT(tc, core.OpChunkGet, w.Bytes())
			cost += c
			if err != nil {
				return nil, fmt.Errorf("repl: fetch %d chunks: %w", len(batch), err)
			}
			return resp, nil
		}
		consume := func(bi int, resp []byte) error {
			batch := batches[bi]
			r := wire.NewReader(resp)
			k := r.Count()
			if err := r.Err(); err != nil {
				return err
			}
			if k == 0 || k > len(batch) {
				return fmt.Errorf("repl: chunk fetch returned %d of %d", k, len(batch))
			}
			for i := 0; i < k; i++ {
				data := r.Bytes32()
				if err := r.Err(); err != nil {
					return err
				}
				// PutPinned verifies the bytes hash to a ref (so a corrupt
				// or hostile parent cannot poison the store) and pins the
				// chunk against eviction for the rest of the transfer.
				got, err := st.PutPinned(data)
				if err != nil {
					return err
				}
				if got != batch[i] {
					st.Release([]store.Ref{got})
					return fmt.Errorf("%w: asked for %s, parent sent %s",
						store.ErrCorrupt, batch[i].Short(), got.Short())
				}
				mFillChunks.Inc()
				mFillBytes.Add(int64(len(data)))
				pinned = append(pinned, got)
			}
			if err := r.Done(); err != nil {
				return err
			}
			leftover = append(leftover, batch[k:]...)
			return nil
		}
		// Responses own nothing (plain byte slices), so no drop hook;
		// cost accumulation in fetch is safe because Pipeline joins the
		// producer goroutine before returning.
		if err := store.Pipeline(2, len(batches), fetch, consume, nil); err != nil {
			return fail(err)
		}
		missing = leftover
	}
	return pinned, cost, nil
}

// handleBulkRead streams the byte range [off, off+n) of one file to
// the caller in chunk-sized frames, reading straight from the content
// store. The manifest's chunks are retained for the duration of the
// stream so a concurrent write cannot delete them mid-transfer; the
// trailer carries the file's size and digest for end-to-end
// verification.
func (rb *replicaBase) handleBulkRead(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	path := r.Str()
	off := r.Int64()
	n := r.Int64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	be, ok := rb.env.Exec.(core.BulkExec)
	if !ok || rb.env.Store == nil {
		return nil, core.ErrNoBulk
	}
	m, err := be.FileManifest(path)
	if err != nil {
		return nil, err
	}
	defer rb.env.Store.Release(m.Refs())

	sw, err := call.OpenStream()
	if err != nil {
		return nil, err
	}
	span := obs.StartSpan(call.TC, "store.walk "+path)
	err = streamManifestRange(rb.env.Store, m, off, n, sw)
	span.SetError(err)
	span.End()
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(48)
	w.Int64(m.Size)
	w.Hash(m.Digest)
	return w.Bytes(), nil
}

// bulkPrefetchDepth is how many chunks the OpBulkRead serve loop keeps
// fetched ahead of the wire. Four 256 KiB chunks of lookahead hide a
// disk read (or pooled verify) behind the previous chunk's send
// without tying a meaningful slice of the buffer pool to one stream.
const bulkPrefetchDepth = 4

// servedChunk is one chunk span staged for the wire: either bytes plus
// the ownership-release callback SendOwned fires at write completion,
// or an open file handle positioned at the span start for SendFile to
// splice (sendfile on TCP transports).
type servedChunk struct {
	data    []byte
	release func()
	file    *os.File
	n       int64
}

// discard frees a staged chunk that will never reach the wire.
func (sc servedChunk) discard() {
	if sc.file != nil {
		sc.file.Close()
	}
	if sc.release != nil {
		sc.release()
	}
}

// streamManifestRange streams [off, off+n) of m to sw, prefetching
// bulkPrefetchDepth chunks ahead of the wire and handing each chunk's
// backing buffer or file handle to the stream without an intermediate
// copy. Spans come from ChunkRange, so a failover retry re-entering at
// the delivered byte offset replans its prefetch window from exactly
// that position — including a partial first chunk.
func streamManifestRange(st *store.Store, m core.Manifest, off, n int64, sw *rpc.StreamWriter) error {
	spans := m.ChunkRange(off, n)
	fetch := func(i int) (servedChunk, error) {
		sp := spans[i]
		c := m.Chunks[sp.Index]
		f, size, err := st.OpenChunk(c.Ref)
		if err == nil {
			if size != c.Size {
				f.Close()
				return servedChunk{}, fmt.Errorf("repl: chunk %s is %d bytes, manifest claims %d",
					c.Ref.Short(), size, c.Size)
			}
			if sp.A > 0 {
				if _, err := f.Seek(sp.A, io.SeekStart); err != nil {
					f.Close()
					return servedChunk{}, err
				}
			}
			return servedChunk{file: f, n: sp.B - sp.A}, nil
		}
		if !errors.Is(err, store.ErrNotOnDisk) {
			return servedChunk{}, fmt.Errorf("repl: bulk content lost chunk %s: %w", c.Ref.Short(), err)
		}
		data, release, err := st.GetZC(c.Ref)
		if err != nil {
			return servedChunk{}, fmt.Errorf("repl: bulk content lost chunk %s: %w", c.Ref.Short(), err)
		}
		if int64(len(data)) != c.Size {
			if release != nil {
				release()
			}
			return servedChunk{}, fmt.Errorf("repl: chunk %s is %d bytes, manifest claims %d",
				c.Ref.Short(), len(data), c.Size)
		}
		return servedChunk{data: data[sp.A:sp.B], release: release}, nil
	}
	consume := func(_ int, sc servedChunk) error {
		if sc.file != nil {
			f := sc.file
			return sw.SendFile(f, sc.n, func() { f.Close() })
		}
		return sw.SendOwned(sc.data, sc.release)
	}
	return store.Pipeline(bulkPrefetchDepth, len(spans), fetch, consume, servedChunk.discard)
}

// readLocalBulk is the replica-side core.BulkReader: it reads from
// the co-resident store with no network traffic.
func (rb *replicaBase) readLocalBulk(tc obs.SpanContext, path string, off, n int64, fn func([]byte) error) (core.Manifest, time.Duration, error) {
	be, ok := rb.env.Exec.(core.BulkExec)
	if !ok || rb.env.Store == nil {
		return core.Manifest{}, 0, core.ErrNoBulk
	}
	m, err := be.FileManifest(path)
	if err != nil {
		return core.Manifest{}, 0, err
	}
	defer rb.env.Store.Release(m.Refs())
	span := obs.StartSpan(tc, "store.walk "+path)
	err = m.WalkRange(rb.env.Store, off, n, fn)
	span.SetError(err)
	span.End()
	if err != nil {
		return m, 0, err
	}
	return m, 0, nil
}

// ReadBulk implements core.BulkReader for every replica type that
// embeds replicaBase (method promotion): the content is local, so the
// read never touches the network. Protocol types whose local state
// can be stale (the cache) override it.
func (rb *replicaBase) ReadBulk(tc obs.SpanContext, path string, off, n int64, fn func([]byte) error) (core.Manifest, time.Duration, error) {
	return rb.readLocalBulk(tc, path, off, n, fn)
}

// streamBulkFrom is the proxy-side core.BulkReader body: it opens an
// OpBulkRead stream to a remote representative and feeds each frame
// to fn. Peak buffering is one frame.
func streamBulkFrom(tc obs.SpanContext, pc *core.PeerClient, path string, off, n int64, fn func([]byte) error) (m core.Manifest, cost time.Duration, err error) {
	span := obs.StartSpan(tc, "repl.stream "+path)
	defer func() {
		span.SetError(err)
		span.End()
	}()
	w := wire.NewWriter(32 + len(path))
	w.Str(path)
	w.Int64(off)
	w.Int64(n)
	st, err := pc.CallStreamT(span.Context(), core.OpBulkRead, w.Bytes())
	if err != nil {
		return core.Manifest{}, 0, err
	}
	defer st.Close()
	for {
		p, _, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			return core.Manifest{}, st.Cost(), err
		}
		if err := fn(p); err != nil {
			return core.Manifest{}, st.Cost(), err
		}
	}
	r := wire.NewReader(st.Trailer())
	m = core.Manifest{Size: r.Int64(), Digest: r.Hash()}
	if err := r.Done(); err != nil {
		return core.Manifest{}, st.Cost(), err
	}
	return m, st.Cost(), nil
}

// streamBulkVia is streamBulkFrom with peer-set failover: when the
// streaming replica dies mid-transfer the read resumes on the next
// candidate at the byte position already delivered, so the consumer
// sees one uninterrupted range and a replica crash costs one retried
// request instead of a failed download. Errors raised by fn itself
// (the consumer) are terminal — retrying elsewhere would replay bytes
// the consumer already took.
func streamBulkVia(tc obs.SpanContext, ps *core.PeerSet, path string, off, n int64, fn func([]byte) error) (core.Manifest, time.Duration, error) {
	var m core.Manifest
	var delivered int64
	cost, err := ps.Do(false, func(_ string, pc *core.PeerClient) (time.Duration, error) {
		remaining := n
		if n >= 0 {
			remaining = n - delivered
			if remaining <= 0 && delivered > 0 {
				// Everything asked for already flowed; only the trailer
				// was lost. Fetch it via a zero-length read.
				remaining = 0
			}
		}
		var sinkErr error
		got, c, err := streamBulkFrom(tc, pc, path, off+delivered, remaining, func(p []byte) error {
			if err := fn(p); err != nil {
				sinkErr = err
				return err
			}
			delivered += int64(len(p))
			return nil
		})
		if sinkErr != nil {
			return c, core.NoFailover(sinkErr)
		}
		if err == nil {
			m = got
		}
		return c, err
	})
	return m, cost, err
}

// handleStateGet answers a versioned state fetch: when the caller's
// version is current the response says "fresh" without shipping state.
func (rb *replicaBase) handleStateGet(call *rpc.Call) ([]byte, error) {
	r := wire.NewReader(call.Body)
	haveVersion := r.Uint64()
	if err := r.Done(); err != nil {
		return nil, err
	}
	rb.mu.Lock()
	version := rb.version
	rb.mu.Unlock()

	w := wire.NewWriter(64)
	if haveVersion == version && version != 0 {
		w.Bool(true) // fresh
		w.Uint64(version)
		w.Bytes32(nil)
		return w.Bytes(), nil
	}
	state, err := rb.env.Exec.MarshalState()
	if err != nil {
		return nil, err
	}
	w.Bool(false)
	w.Uint64(version)
	w.Bytes32(state)
	return w.Bytes(), nil
}

func (rb *replicaBase) handleSubscribe(call *rpc.Call, add bool) ([]byte, error) {
	// Subscriptions alter who receives state: only GDN infrastructure
	// may register (a hostile subscriber could otherwise stall writes).
	if rb.env.Auth != nil && !sec.HasRole(call.Peer, sec.RoleGOS, sec.RoleHTTPD, sec.RoleAdmin) {
		return nil, fmt.Errorf("%w: peer %q may not subscribe", sec.ErrUnauthorized, call.Peer)
	}
	r := wire.NewReader(call.Body)
	addr := r.Str()
	role := r.Str()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if add {
		rb.addSubscriber(addr, role)
	} else {
		rb.removeSubscriber(addr)
	}
	return nil, nil
}

// subscribeTo announces this replica to a parent.
func (rb *replicaBase) subscribeTo(parentAddr, ownAddr, role string) error {
	w := wire.NewWriter(64)
	w.Str(ownAddr)
	w.Str(role)
	_, _, err := rb.env.Dial(parentAddr).Call(core.OpSubscribe, w.Bytes())
	return err
}

// unsubscribeFrom withdraws the announcement; failures are ignored
// because teardown must proceed even when the parent is gone.
func (rb *replicaBase) unsubscribeFrom(parentAddr, ownAddr string) {
	w := wire.NewWriter(64)
	w.Str(ownAddr)
	w.Str("")
	rb.env.Dial(parentAddr).Call(core.OpUnsubscribe, w.Bytes()) //nolint:errcheck
}

// fetchState pulls state from a parent replica. It returns fresh=true
// when the parent confirmed haveVersion is current. The state is a
// manifest for chunk-stored semantics; fetchState completes the delta
// sync by pulling exactly the referenced chunks the local store lacks,
// so the caller can install the state directly. The returned pins
// hold every referenced chunk against eviction; the caller passes
// them to releasePins once the install is done.
func (rb *replicaBase) fetchState(tc obs.SpanContext, parent *core.PeerClient, haveVersion uint64) (fresh bool, version uint64, state []byte, pins []store.Ref, cost time.Duration, err error) {
	w := wire.NewWriter(8)
	w.Uint64(haveVersion)
	resp, cost, err := parent.CallT(tc, core.OpStateGet, w.Bytes())
	if err != nil {
		return false, 0, nil, nil, cost, err
	}
	r := wire.NewReader(resp)
	fresh = r.Bool()
	version = r.Uint64()
	state = r.Bytes32()
	if err := r.Done(); err != nil {
		return false, 0, nil, nil, cost, err
	}
	if !fresh {
		var fillCost time.Duration
		pins, fillCost, err = rb.fillChunks(tc, parent, state)
		cost += fillCost
		if err != nil {
			return false, 0, nil, nil, cost, err
		}
	}
	return fresh, version, state, pins, cost, nil
}

// fetchStateVia is fetchState with peer-set failover: the fetch (and
// its delta chunk fill) runs against the top-ranked parent candidate
// and retries down the ranking when one is dead. The address that
// actually served is returned so the caller can track its current
// parent (an invalidation-mode cache re-subscribes there).
func (rb *replicaBase) fetchStateVia(tc obs.SpanContext, ps *core.PeerSet, haveVersion uint64) (servedBy string, fresh bool, version uint64, state []byte, pins []store.Ref, cost time.Duration, err error) {
	cost, err = ps.Do(false, func(addr string, pc *core.PeerClient) (time.Duration, error) {
		f, v, st, p, c, e := rb.fetchState(tc, pc, haveVersion)
		if e == nil {
			servedBy, fresh, version, state, pins = addr, f, v, st, p
		}
		return c, e
	})
	return servedBy, fresh, version, state, pins, cost, err
}

// releasePins drops the transfer pins fetchState/fillChunks took.
func (rb *replicaBase) releasePins(refs []store.Ref) {
	if rb.env.Store != nil && len(refs) > 0 {
		rb.env.Store.Release(refs)
	}
}

// pushAll delivers op+body to every address concurrently and returns
// the maximum single cost — pushes happen in parallel, so the latency a
// client observes is the slowest push, while the network meter has
// already counted every frame.
func (rb *replicaBase) pushAll(addrs []string, op uint16, body []byte) (time.Duration, error) {
	if len(addrs) == 0 {
		return 0, nil
	}
	type result struct {
		cost time.Duration
		err  error
	}
	results := make(chan result, len(addrs))
	for _, addr := range addrs {
		go func(addr string) {
			_, cost, err := rb.env.Dial(addr).Call(op, body)
			results <- result{cost, err}
		}(addr)
	}
	var max time.Duration
	var firstErr error
	for range addrs {
		r := <-results
		if r.cost > max {
			max = r.cost
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	return max, firstErr
}

// encodeStatePush builds an OpStatePush body.
func encodeStatePush(version uint64, state []byte) []byte {
	w := wire.NewWriter(16 + len(state))
	w.Uint64(version)
	w.Bytes32(state)
	return w.Bytes()
}

// decodeStatePush reverses encodeStatePush.
func decodeStatePush(b []byte) (version uint64, state []byte, err error) {
	r := wire.NewReader(b)
	version = r.Uint64()
	state = r.Bytes32()
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	return version, state, nil
}
