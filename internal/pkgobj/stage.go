package pkgobj

import (
	"crypto/sha256"
	"fmt"

	"gdn/internal/store"
)

// Chunks holds staged chunk bodies by content address. The bodies
// alias the staged file contents, so they stay valid only while the
// caller leaves those unchanged.
type Chunks map[store.Ref][]byte

// Get returns the body of ref, or store.ErrMissing.
func (c Chunks) Get(ref store.Ref) ([]byte, error) {
	body, ok := c[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", store.ErrMissing, ref.Short())
	}
	return body, nil
}

// Stage builds the marshalled state of a package holding files and
// meta, plus the bodies of the chunks that state references — what a
// moderator tool ships to the first object server of a deployment. The
// state is byte-identical to what New, Stub.UploadFile of every file,
// Stub.SetMeta of every entry and MarshalState produce, but no content
// is copied or stored: each body is a sub-slice of its file, and each
// byte is hashed twice, once for the file digest and once for its
// chunk's address. As with SetMeta, an empty meta value sets nothing.
func Stage(files map[string][]byte, meta map[string]string) ([]byte, Chunks, error) {
	p := &Package{
		meta:      make(map[string]string, len(meta)),
		files:     make(map[string]*file, len(files)),
		chunkSize: DefaultChunkSize,
	}
	for k, v := range meta {
		if v != "" {
			p.meta[k] = v
		}
	}
	chunks := make(Chunks)
	for path, data := range files {
		if !validPath(path) {
			return nil, nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
		f := &file{
			size:   int64(len(data)),
			digest: sha256.Sum256(data),
			chunks: make([]store.Chunk, 0, (len(data)+p.chunkSize-1)/p.chunkSize),
		}
		for off := 0; off < len(data); off += p.chunkSize {
			end := min(off+p.chunkSize, len(data))
			body := data[off:end:end]
			ref := store.RefOf(body)
			f.chunks = append(f.chunks, store.Chunk{Ref: ref, Size: int64(len(body))})
			chunks[ref] = body
		}
		p.files[path] = f
	}
	state, err := p.MarshalState()
	if err != nil {
		return nil, nil, err
	}
	return state, chunks, nil
}
