package pkgobj

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/store"
	"gdn/internal/wire"
)

// Stub is the typed face of a package DSO: the hand-written equivalent
// of the control-subobject code Globe's IDL compiler would generate
// (paper §7). It marshals each method's parameters, classifies it as a
// read or a write, and invokes through the local representative, so
// callers never touch invocation messages.
//
// The stub accumulates the virtual network cost of the calls it makes;
// experiments read it with TakeCost.
type Stub struct {
	lr *core.LR

	mu   sync.Mutex
	cost time.Duration
}

// NewStub wraps a bound local representative of a package DSO.
func NewStub(lr *core.LR) *Stub { return &Stub{lr: lr} }

// LR returns the underlying representative.
func (s *Stub) LR() *core.LR { return s.lr }

// Close releases the representative.
func (s *Stub) Close() error { return s.lr.Close() }

// TakeCost returns the virtual network cost accumulated since the last
// call and resets the accumulator.
func (s *Stub) TakeCost() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cost
	s.cost = 0
	return c
}

func (s *Stub) invoke(method string, write bool, args []byte) ([]byte, error) {
	out, cost, err := s.lr.Invoke(method, write, args)
	s.mu.Lock()
	s.cost += cost
	s.mu.Unlock()
	return out, err
}

// AddFile stores a file, replacing any previous content at the path.
func (s *Stub) AddFile(path string, data []byte) error {
	w := wire.NewWriter(8 + len(path) + len(data))
	w.Str(path)
	w.Bytes32(data)
	_, err := s.invoke(MethodAddFile, true, w.Bytes())
	return err
}

// uploadSliceSize bounds one AddFile/AppendFile invocation so upload
// messages stay far under the wire field limit regardless of file
// size.
const uploadSliceSize = 4 << 20

// UploadFile stores a file of any size — the moderator-tool upload
// path. No single protocol message scales with the file. When the
// replication subobject supports chunk negotiation the transfer is a
// delta: the remote names the content chunks it lacks, only those
// bodies cross the wire (as an upload stream), and a manifest write
// installs the file — so re-deploying a mostly-unchanged file costs
// its changed chunks, and an unchanged one costs no content bytes at
// all. Otherwise the content travels in bounded AddFile/AppendFile
// slices as before.
func (s *Stub) UploadFile(path string, data []byte) error {
	// Re-deploy short-circuit: the remote file already holds exactly
	// this content (size and whole-file digest agree), so there is
	// nothing to transfer in either shape.
	if fi, err := s.Stat(path); err == nil && fi.Size == int64(len(data)) && fi.Digest == sha256.Sum256(data) {
		return nil
	}
	if neg, ok := s.lr.Replication().(core.ChunkNegotiator); ok {
		if err := s.uploadNegotiated(neg, path, data); err == nil {
			return nil
		}
		// Any negotiated-path failure falls back to the content-bearing
		// slice upload; its error (if the problem persists) is the
		// authoritative one.
	}
	first := data
	if len(first) > uploadSliceSize {
		first = first[:uploadSliceSize]
	}
	if err := s.AddFile(path, first); err != nil {
		return err
	}
	for off := len(first); off < len(data); {
		end := off + uploadSliceSize
		if end > len(data) {
			end = len(data)
		}
		if err := s.AppendFile(path, data[off:end]); err != nil {
			return err
		}
		off = end
	}
	return nil
}

// uploadNegotiated ships data as a negotiated delta: the content
// chunks go through the one chunk upload (neg.PutChunks), then the
// manifest write names them.
func (s *Stub) uploadNegotiated(neg core.ChunkNegotiator, path string, data []byte) error {
	n := (len(data) + DefaultChunkSize - 1) / DefaultChunkSize
	chunks := make([]store.Chunk, 0, n)
	refs := make([]store.Ref, 0, n)
	bodies := make(Chunks, n)
	for off := 0; off < len(data); off += DefaultChunkSize {
		body := data[off:min(off+DefaultChunkSize, len(data))]
		ref := store.RefOf(body)
		chunks = append(chunks, store.Chunk{Ref: ref, Size: int64(len(body))})
		refs = append(refs, ref)
		bodies[ref] = body
	}
	_, cost, err := neg.PutChunks(bodies, refs)
	s.addCost(cost)
	if err != nil {
		return err
	}

	w := wire.NewWriter(64 + len(path) + 40*len(chunks))
	w.Str(path)
	w.Int64(int64(len(data)))
	w.Hash(sha256.Sum256(data))
	w.Count(len(chunks))
	for _, c := range chunks {
		w.Hash(c.Ref)
		w.Int64(c.Size)
	}
	_, err = s.invoke(MethodAddManifest, true, w.Bytes())
	return err
}

// addCost accumulates virtual network cost incurred outside invoke.
func (s *Stub) addCost(d time.Duration) {
	s.mu.Lock()
	s.cost += d
	s.mu.Unlock()
}

// AppendFile appends to a file, creating it when missing; moderator
// tools upload very large files in slices with it.
func (s *Stub) AppendFile(path string, data []byte) error {
	w := wire.NewWriter(8 + len(path) + len(data))
	w.Str(path)
	w.Bytes32(data)
	_, err := s.invoke(MethodAppendFile, true, w.Bytes())
	return err
}

// RemoveFile deletes a file from the package.
func (s *Stub) RemoveFile(path string) error {
	w := wire.NewWriter(4 + len(path))
	w.Str(path)
	_, err := s.invoke(MethodRemoveFile, true, w.Bytes())
	return err
}

// ListContents returns the package's files, sorted by path.
func (s *Stub) ListContents() ([]FileInfo, error) {
	out, err := s.invoke(MethodListContents, false, nil)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(out)
	n := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	infos := make([]FileInfo, 0, n)
	for i := 0; i < n; i++ {
		infos = append(infos, decodeFileInfo(r))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return infos, nil
}

// isInlineRead recognizes ErrInlineRead across an RPC boundary, where
// remote errors arrive flattened to text. GetFileContents's fallback
// to the streaming read is its one user; a structured error code over
// the wire would replace it (ROADMAP follow-up).
func isInlineRead(err error) bool {
	return err != nil && strings.Contains(err.Error(), ErrInlineRead.Error())
}

// GetFileContents returns a file's full content. Files above
// MaxInlineRead cannot travel as one protocol message; the stub
// transparently assembles them through the chunk-bounded streaming
// read instead, so callers keep working at any size (though they
// still hold the whole content in memory — prefer ReadFileTo).
func (s *Stub) GetFileContents(path string) ([]byte, error) {
	w := wire.NewWriter(4 + len(path))
	w.Str(path)
	out, err := s.invoke(MethodGetFile, false, w.Bytes())
	if isInlineRead(err) {
		var buf bytes.Buffer
		if _, rerr := s.ReadFileTo(&buf, path); rerr != nil {
			return nil, rerr
		}
		return buf.Bytes(), nil
	}
	return out, err
}

// GetFileChunk reads up to n bytes at offset off; short reads signal
// end of file.
func (s *Stub) GetFileChunk(path string, off, n int64) ([]byte, error) {
	w := wire.NewWriter(20 + len(path))
	w.Str(path)
	w.Int64(off)
	w.Int64(n)
	return s.invoke(MethodGetChunk, false, w.Bytes())
}

// Stat returns one file's metadata.
func (s *Stub) Stat(path string) (FileInfo, error) {
	w := wire.NewWriter(4 + len(path))
	w.Str(path)
	out, err := s.invoke(MethodStat, false, w.Bytes())
	if err != nil {
		return FileInfo{}, err
	}
	r := wire.NewReader(out)
	fi := decodeFileInfo(r)
	if err := r.Done(); err != nil {
		return FileInfo{}, err
	}
	return fi, nil
}

// ReadFileTo streams a file's full content into w and verifies it,
// untraced; see ReadFileToT.
func (s *Stub) ReadFileTo(w io.Writer, path string) (int64, error) {
	return s.ReadFileToT(obs.SpanContext{}, w, path, 0, -1)
}

// ReadFileToT streams the byte range [off, off+n) of a bulk item — a
// working file's path or a tagged file's version item — into w with
// chunk-bounded buffering (n < 0 means to the end) and returns the
// byte count written. The content arrives through the replication
// subobject's ReadBulk: a frame stream over one call from a remote
// representative, or a walk of the local store. tc joins the bulk
// stream (and any upstream fill it triggers) to the caller's trace.
//
// A whole-item read (off == 0, n < 0) returns nil only for content
// verified against the manifest's size and SHA-256 digest — the GDN's
// integrity guarantee (§6.1) on the download path, kept by ReadBulk
// (see core.Replication). A failed check is an error that reads
// "digest mismatch" and may come after every byte reached w, so a
// consumer must hold the bytes as unverified until the call returns.
// A partial body cannot be checked against the whole-file digest, so
// a range read rests on the chunk layer instead. Callers that need
// end-to-end verification of ranges check the assembled bytes against
// the digest themselves (it rides the X-GDN-Digest header on the HTTP
// path).
func (s *Stub) ReadFileToT(tc obs.SpanContext, w io.Writer, path string, off, n int64) (int64, error) {
	var written int64
	_, cost, err := s.lr.Replication().ReadBulk(tc, path, off, n, func(p []byte) error {
		k, err := w.Write(p)
		written += int64(k)
		return err
	})
	s.addCost(cost)
	return written, err
}

// VerifyFile downloads a file with chunk-bounded buffering and checks
// its digest — the end-to-end integrity check the GDN's security
// story leans on.
func (s *Stub) VerifyFile(path string) error {
	_, err := s.ReadFileTo(io.Discard, path)
	return err
}

// SetMeta sets one metadata entry; an empty value deletes the key.
func (s *Stub) SetMeta(key, value string) error {
	w := wire.NewWriter(8 + len(key) + len(value))
	w.Str(key)
	w.Str(value)
	_, err := s.invoke(MethodSetMeta, true, w.Bytes())
	return err
}

// GetMeta reads one metadata entry ("" when unset).
func (s *Stub) GetMeta(key string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("pkgobj: GetMeta needs a key; use Meta for all entries")
	}
	w := wire.NewWriter(4 + len(key))
	w.Str(key)
	out, err := s.invoke(MethodGetMeta, false, w.Bytes())
	return string(out), err
}

// Meta returns all metadata entries.
func (s *Stub) Meta() (map[string]string, error) {
	w := wire.NewWriter(4)
	w.Str("")
	out, err := s.invoke(MethodGetMeta, false, w.Bytes())
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(out)
	n := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	meta := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		meta[k] = r.Str()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return meta, nil
}
