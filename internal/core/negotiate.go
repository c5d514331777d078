package core

import (
	"errors"
	"fmt"
	"time"

	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// Chunk upload: the moderator shipping a package's content to an
// object server (gos.OpChunkHave, gos.OpPutChunks) and a writer
// shipping content to a replica ahead of a manifest write
// (OpChunkHave, OpChunkPut) are one job with one wire shape. The
// negotiation request carries a counted list of content refs and its
// response the missing subset; the upload is a stream, one chunk per
// data frame. PutChunks is the one client and ServeChunkHave and
// ServeChunkPut the one server side; only the op codes and the
// authorization in front of them differ.

// ChunkHaveMaxRefs bounds one negotiation request so bodies stay
// kilobytes even for very large packages; PutChunks batches, servers
// reject bigger requests.
const ChunkHaveMaxRefs = 1024

// ErrUnaryChunkPut refuses a chunk upload that is not an upload stream.
var ErrUnaryChunkPut = errors.New("core: chunk upload must be an upload stream")

// EncodeRefs serializes a counted ref list: the body of negotiation
// requests and answers, and of OpChunkGet requests.
func EncodeRefs(refs []store.Ref) []byte {
	w := wire.NewWriter(8 + 32*len(refs))
	w.Count(len(refs))
	for _, ref := range refs {
		w.Hash(ref)
	}
	return w.Bytes()
}

// DecodeRefs reverses EncodeRefs. max > 0 rejects longer lists — the
// server's guard on requests and the client's on answers.
func DecodeRefs(body []byte, max int) ([]store.Ref, error) {
	r := wire.NewReader(body)
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if max > 0 && n > max {
		return nil, fmt.Errorf("core: chunk negotiation of %d refs exceeds the %d bound", n, max)
	}
	refs := make([]store.Ref, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, r.Hash())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return refs, nil
}

// ChunkSource supplies chunk bodies by content address for an upload:
// a *store.Store, or the chunks pkgobj.Stage produced.
type ChunkSource interface {
	Get(ref store.Ref) ([]byte, error)
}

// UploadStats reports what a chunk upload actually moved; tests and
// deploy tooling read it to confirm that re-deploys of unchanged
// content short-circuit.
type UploadStats struct {
	// Offered counts the deduplicated refs the upload names.
	Offered int
	// Sent counts the chunk bodies that crossed the wire (the refs the
	// target was missing).
	Sent int
	// SentBytes is their content size.
	SentBytes int64
}

// ChunkConn is the connection a chunk upload runs over: an
// *rpc.Client to an object server's command endpoint, or a
// *PeerClient to one replica.
type ChunkConn interface {
	Call(tc obs.SpanContext, op uint16, body []byte) ([]byte, time.Duration, error)
	CallUpload(tc obs.SpanContext, op uint16, header []byte) (*rpc.UploadStream, error)
}

// PutChunks makes every listed chunk present in the store behind conn,
// shipping only the ones it lacks. The which-of-these-do-you-have
// negotiation (haveOp) runs in ChunkHaveMaxRefs batches; the missing
// bodies, read from src, then flow over one upload stream (putOp), so
// peak buffering is O(chunk) at both ends, and no stream opens when
// nothing is missing. An answer naming a ref its batch did not offer,
// or naming one twice, is refused before any body moves.
func PutChunks(tc obs.SpanContext, conn ChunkConn, haveOp, putOp uint16, src ChunkSource, refs []store.Ref) (UploadStats, time.Duration, error) {
	index := make(map[store.Ref]int, len(refs)) // offered position; -1 once answered
	offered := refs[:0:0]
	for _, ref := range refs {
		if _, dup := index[ref]; !dup {
			index[ref] = len(offered)
			offered = append(offered, ref)
		}
	}
	stats := UploadStats{Offered: len(offered)}

	var missing []store.Ref
	var total time.Duration
	for lo := 0; lo < len(offered); lo += ChunkHaveMaxRefs {
		hi := min(lo+ChunkHaveMaxRefs, len(offered))
		resp, cost, err := conn.Call(tc, haveOp, EncodeRefs(offered[lo:hi]))
		total += cost
		if err != nil {
			return stats, total, err
		}
		got, err := DecodeRefs(resp, hi-lo)
		if err != nil {
			return stats, total, err
		}
		for _, ref := range got {
			if i, ok := index[ref]; !ok || i < lo || i >= hi {
				return stats, total, fmt.Errorf("core: chunk negotiation answered with %s, which the request did not offer", ref.Short())
			}
			index[ref] = -1
			missing = append(missing, ref)
		}
	}
	if len(missing) == 0 {
		return stats, total, nil
	}

	us, err := conn.CallUpload(tc, putOp, nil)
	if err != nil {
		return stats, total, err
	}
	for _, ref := range missing {
		data, err := src.Get(ref)
		if err != nil {
			us.Cancel()
			return stats, total, fmt.Errorf("core: read chunk %s for upload: %w", ref.Short(), err)
		}
		if us.Send(data) != nil {
			// The target already answered (an error, or teardown);
			// CloseAndRecv returns the authoritative result.
			break
		}
		stats.Sent++
		stats.SentBytes += int64(len(data))
	}
	_, cost, err := us.CloseAndRecv()
	total += cost
	return stats, total, err
}

// ServeChunkHave answers a negotiation request from st: refs in, the
// subset st lacks out. The caller authorizes first.
func ServeChunkHave(st *store.Store, call *rpc.Call) ([]byte, error) {
	refs, err := DecodeRefs(call.Body, ChunkHaveMaxRefs)
	if err != nil {
		return nil, err
	}
	return EncodeRefs(st.Missing(refs)), nil
}

// ServeChunkPut stores the chunks of an upload stream in st, one raw
// chunk per data frame, and refuses a unary call. Each chunk's address
// is computed on arrival, so an uploader cannot plant bytes under a
// foreign name, and a chunk st already holds is a no-op. The caller
// authorizes first.
func ServeChunkPut(st *store.Store, call *rpc.Call) ([]byte, error) {
	ur := call.Upload()
	if ur == nil {
		return nil, ErrUnaryChunkPut
	}
	return nil, st.Ingest(ur)
}
