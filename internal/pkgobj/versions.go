package pkgobj

import (
	"fmt"
	"sort"

	"gdn/internal/core"
	"gdn/internal/wire"
)

// Version management: one of the two functional additions the paper
// plans for the GDN ("version-management facilities", §8). A moderator
// or maintainer tags the package's current files under a label;
// tagged versions are immutable snapshots that clients can list and
// read even after the working files move on — the "stable release
// stays downloadable while development continues" workflow of real
// software archives.

// Additional method names for version management.
const (
	MethodTagVersion   = "tagVersion"
	MethodListVersions = "listVersions"
	MethodGetFileAt    = "getFileAtVersion"
	MethodGetChunkAt   = "getFileChunkAtVersion"
	MethodDropVersion  = "dropVersion"
)

// ErrNoVersion is returned for unknown version labels.
var ErrNoVersion = fmt.Errorf("pkgobj: no such version")

// invokeVersion handles the version-management methods; it reports
// whether the method belonged to this extension.
func (p *Package) invokeVersion(inv core.Invocation, r *wire.Reader) (handled bool, out []byte, err error) {
	switch inv.Method {
	case MethodTagVersion:
		label := r.Str()
		if err := r.Done(); err != nil {
			return true, nil, err
		}
		return true, nil, p.tagVersion(label)
	case MethodListVersions:
		if err := r.Done(); err != nil {
			return true, nil, err
		}
		labels := make([]string, 0, len(p.versions))
		for l := range p.versions {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		w := wire.NewWriter(64)
		w.Count(len(labels))
		for _, l := range labels {
			w.Str(l)
		}
		return true, w.Bytes(), nil
	case MethodGetFileAt:
		label := r.Str()
		path := r.Str()
		if err := r.Done(); err != nil {
			return true, nil, err
		}
		v, ok := p.versions[label]
		if !ok {
			return true, nil, fmt.Errorf("%w: %q", ErrNoVersion, label)
		}
		f, ok := v.files[path]
		if !ok {
			return true, nil, fmt.Errorf("%w: %q at version %q", ErrNoFile, path, label)
		}
		if f.size > MaxInlineRead {
			return true, nil, fmt.Errorf("%w: %q@%q is %d bytes", ErrInlineRead, path, label, f.size)
		}
		out, err := f.read(p.st, 0, f.size)
		return true, out, err
	case MethodGetChunkAt:
		label := r.Str()
		path := r.Str()
		off := r.Int64()
		n := r.Int64()
		if err := r.Done(); err != nil {
			return true, nil, err
		}
		v, ok := p.versions[label]
		if !ok {
			return true, nil, fmt.Errorf("%w: %q", ErrNoVersion, label)
		}
		f, ok := v.files[path]
		if !ok {
			return true, nil, fmt.Errorf("%w: %q at version %q", ErrNoFile, path, label)
		}
		out, err := f.read(p.st, off, n)
		return true, out, err
	case MethodDropVersion:
		label := r.Str()
		if err := r.Done(); err != nil {
			return true, nil, err
		}
		v, ok := p.versions[label]
		if !ok {
			return true, nil, fmt.Errorf("%w: %q", ErrNoVersion, label)
		}
		for _, f := range v.files {
			p.st.Release(f.refs())
		}
		delete(p.versions, label)
		return true, nil, nil
	default:
		return false, nil, nil
	}
}

// tagVersion snapshots the current files under a label. Snapshots are
// manifests pinning their chunks in the content store, so a version
// of a multi-gigabyte package that shares most content with the
// working files costs almost nothing — content addressing is the
// version store. Re-tagging an existing label is refused: published
// versions are immutable.
func (p *Package) tagVersion(label string) error {
	if label == "" {
		return fmt.Errorf("pkgobj: empty version label")
	}
	if _, taken := p.versions[label]; taken {
		return fmt.Errorf("pkgobj: version %q already exists", label)
	}
	snap := version{files: make(map[string]*file, len(p.files))}
	for path, f := range p.files {
		c := f.clone()
		if err := p.st.Retain(c.refs()); err != nil {
			// Roll back the pins taken so far.
			for _, prev := range snap.files {
				p.st.Release(prev.refs())
			}
			return err
		}
		snap.files[path] = c
	}
	if p.versions == nil {
		p.versions = make(map[string]version)
	}
	p.versions[label] = snap
	return nil
}

// encodeVersions appends the versions section to a state encoding.
func (p *Package) encodeVersions(w *wire.Writer) {
	labels := make([]string, 0, len(p.versions))
	for l := range p.versions {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	w.Count(len(labels))
	for _, label := range labels {
		w.Str(label)
		v := p.versions[label]
		paths := make([]string, 0, len(v.files))
		for path := range v.files {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		w.Count(len(paths))
		for _, path := range paths {
			encodeManifest(w, path, v.files[path])
		}
	}
}

// decodeVersions reads the versions section of a state encoding.
func decodeVersions(r *wire.Reader) (map[string]version, error) {
	n := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 {
		return nil, nil
	}
	out := make(map[string]version, fit(r, n, versionEncSize))
	for i := 0; i < n; i++ {
		label := r.Str()
		nf := r.Count()
		if r.Err() != nil {
			return nil, r.Err()
		}
		v := version{files: make(map[string]*file, fit(r, nf, manifestEncSize))}
		for j := 0; j < nf; j++ {
			path, f, err := decodeManifest(r)
			if err != nil {
				return nil, err
			}
			// Version paths face the same consumers as live paths
			// (file systems, URLs); hostile state must not smuggle
			// malformed ones in through a snapshot.
			if !validPath(path) {
				return nil, fmt.Errorf("%w: %q in version %q", ErrBadPath, path, label)
			}
			v.files[path] = f
		}
		out[label] = v
	}
	return out, r.Err()
}

// --- typed stub methods ------------------------------------------------

// TagVersion snapshots the package's current files under an immutable
// label.
func (s *Stub) TagVersion(label string) error {
	w := wire.NewWriter(4 + len(label))
	w.Str(label)
	_, err := s.invoke(MethodTagVersion, true, w.Bytes())
	return err
}

// ListVersions returns the tagged version labels, sorted.
func (s *Stub) ListVersions() ([]string, error) {
	out, err := s.invoke(MethodListVersions, false, nil)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(out)
	n := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	labels := make([]string, 0, n)
	for i := 0; i < n; i++ {
		labels = append(labels, r.Str())
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return labels, nil
}

// GetFileAtVersion reads a file's content as it was when the version
// was tagged. Versioned files above MaxInlineRead are assembled from
// chunk reads, so tagged content has no size ceiling either.
func (s *Stub) GetFileAtVersion(label, path string) ([]byte, error) {
	w := wire.NewWriter(8 + len(label) + len(path))
	w.Str(label)
	w.Str(path)
	out, err := s.invoke(MethodGetFileAt, false, w.Bytes())
	if isInlineRead(err) {
		return s.getVersionChunked(label, path)
	}
	return out, err
}

// getVersionChunked reassembles a large versioned file chunk by chunk.
func (s *Stub) getVersionChunked(label, path string) ([]byte, error) {
	var out []byte
	for off := int64(0); ; {
		w := wire.NewWriter(24 + len(label) + len(path))
		w.Str(label)
		w.Str(path)
		w.Int64(off)
		w.Int64(streamChunkSize)
		chunk, err := s.invoke(MethodGetChunkAt, false, w.Bytes())
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			return out, nil
		}
		out = append(out, chunk...)
		off += int64(len(chunk))
	}
}

// DropVersion removes a tagged version.
func (s *Stub) DropVersion(label string) error {
	w := wire.NewWriter(4 + len(label))
	w.Str(label)
	_, err := s.invoke(MethodDropVersion, true, w.Bytes())
	return err
}
