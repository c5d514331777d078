package pkgobj

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// is copied or stored: each body is a sub-slice of its file. Every
// chunk is hashed once for its address; a file of exactly one chunk
// takes its digest from that address (the same SHA-256 over the same
// bytes), and any other file is hashed once more, whole. The hashes
// run on up to GOMAXPROCS goroutines. As with SetMeta, an empty meta
// value sets nothing.
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
	var jobs []hashJob
	for path, data := range files {
		if !validPath(path) {
			return nil, nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
		f := &file{
			size:   int64(len(data)),
			chunks: make([]store.Chunk, (len(data)+p.chunkSize-1)/p.chunkSize),
		}
		for i := range f.chunks {
			off := i * p.chunkSize
			body := data[off:min(off+p.chunkSize, len(data))]
			f.chunks[i].Size = int64(len(body))
			jobs = append(jobs, hashJob{body, (*[sha256.Size]byte)(&f.chunks[i].Ref)})
		}
		if len(f.chunks) != 1 {
			jobs = append(jobs, hashJob{data, &f.digest})
		}
		p.files[path] = f
	}
	hashAll(jobs)

	chunks := make(Chunks)
	for path, data := range files {
		f := p.files[path]
		if len(f.chunks) == 1 {
			f.digest = f.chunks[0].Ref
		}
		off := 0
		for _, c := range f.chunks {
			end := off + int(c.Size)
			chunks[c.Ref] = data[off:end:end]
			off = end
		}
	}
	state, err := p.MarshalState()
	if err != nil {
		return nil, nil, err
	}
	return state, chunks, nil
}

// hashJob is one SHA-256 to compute: the digest of data goes to sum.
type hashJob struct {
	data []byte
	sum  *[sha256.Size]byte
}

// hashAll runs every job on up to GOMAXPROCS goroutines, the caller's
// among them, taking the largest jobs first so that no worker is left
// with a long one at the end. It returns once every sum is written.
func hashAll(jobs []hashJob) {
	slices.SortFunc(jobs, func(a, b hashJob) int { return len(b.data) - len(a.data) })
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
			*jobs[i].sum = sha256.Sum256(jobs[i].data)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
