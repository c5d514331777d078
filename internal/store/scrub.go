package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Background scrubbing: disk chunks are written once and read rarely,
// which is exactly the access pattern under which silent media
// corruption goes unnoticed until a client's end-to-end digest check
// fails mid-download. The scrubber re-reads resident chunks at a
// bounded rate and verifies each against its content address — the
// address is self-certifying, so no separate checksum database is
// needed. A corrupt chunk is quarantined — by the scrubber or by any
// read that finds it corrupt: a copy of its bytes goes to
// <dir>/quarantine/<ref> for post-mortem, its record becomes dead
// space, and the ref starts answering ErrMissing, so the next state
// transfer or cache fill that touches it fetches a fresh verified copy
// from a peer and heals the entry in place (the reference count of
// live manifests is preserved across the round trip).

// quarantineDir is the subdirectory post-mortem copies of corrupt
// chunks are written to.
const quarantineDir = "quarantine"

// ScrubResult reports one scrubbing pass.
type ScrubResult struct {
	// Chunks and Bytes are how much content this pass verified.
	Chunks int
	Bytes  int64
	// Quarantined lists the refs found corrupt and moved aside.
	Quarantined []Ref
	// Wrapped reports that the pass reached the end of the ref space
	// and the next pass restarts from the beginning.
	Wrapped bool
}

// Scrub verifies up to limit bytes of disk-resident chunks against
// their content addresses, resuming where the previous pass stopped
// (refs are walked in ascending order, so bounded passes cover the
// whole store over time). limit <= 0 verifies everything resident.
// Corrupt chunks are quarantined. Memory-backed stores are not
// scrubbed: their bytes were verified against the address on Put, and
// every read checks them against the CRC-32C taken then, so a changed
// byte fails its next read with ErrCorrupt, which quarantines the
// chunk, instead of waiting for a pass.
func (s *Store) Scrub(limit int64) ScrubResult {
	var res ScrubResult
	if s.dir == "" {
		return res
	}

	refs := s.Refs()
	s.scrubMu.Lock()
	start := s.cursor
	started := s.scrubbed
	s.scrubMu.Unlock()

	sort.Slice(refs, func(i, j int) bool {
		return bytes.Compare(refs[i][:], refs[j][:]) < 0
	})
	// Resume strictly after the cursor; a fresh store starts at the
	// lowest ref.
	pos := 0
	if started {
		pos = sort.Search(len(refs), func(i int) bool {
			return bytes.Compare(refs[i][:], start[:]) > 0
		})
	}

	// Visit each resident ref at most once, starting at the cursor and
	// wrapping to the low end of the ref space.
	for n := 0; n < len(refs); n++ {
		if limit > 0 && res.Bytes >= limit {
			break
		}
		idx := (pos + n) % len(refs)
		if idx == len(refs)-1 {
			// Reached the top of the ref space: the next pass restarts
			// from the bottom.
			res.Wrapped = true
		}
		ref := refs[idx]
		size, corrupt := s.verify(ref)
		res.Chunks++
		res.Bytes += size
		if corrupt {
			res.Quarantined = append(res.Quarantined, ref)
		}
		s.scrubMu.Lock()
		s.cursor = ref
		s.scrubbed = true
		s.scrubMu.Unlock()
		s.scrubbedB.Add(size)
		mScrubbedBytes.Add(size)
	}
	return res
}

// verify re-reads one chunk and checks it hashes to its ref; a corrupt
// chunk is quarantined by the read. A chunk that vanished is not
// corruption: eviction or Release raced the scrub.
func (s *Store) verify(ref Ref) (size int64, corrupt bool) {
	data, release, err := s.read(ref, false)
	if err != nil {
		return 0, errors.Is(err, ErrCorrupt)
	}
	size = int64(len(data))
	if release != nil {
		release()
	}
	return size, false
}

// quarantine sets one corrupt chunk aside, if the index still points
// at the bytes found corrupt (where), writing corpse, when given, to
// the quarantine directory. Unreferenced chunks are simply dropped
// (nothing will miss them); referenced ones keep a placeholder entry
// so the pins of live manifests survive until a verified Put heals the
// ref.
func (s *Store) quarantine(ref Ref, where at, corpse []byte) {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	e, ok := sh.chunks[ref]
	if !ok || !where.is(e) {
		sh.mu.Unlock()
		return
	}
	s.quarantined.Add(1)
	mQuarantined.Inc()
	if e.refs == 0 {
		s.dropLocked(sh, ref, e)
	} else {
		if e.elem != nil {
			sh.cold.Remove(e.elem)
			e.elem = nil
		}
		s.bytes.Add(-e.size)
		if e.seg != nil {
			s.deadRecord(e.seg, e.size)
		}
		e.size, e.data, e.seg = 0, nil, nil
		e.gone = true
		sh.gone++
	}
	sh.mu.Unlock()
	if s.dir != "" && corpse != nil {
		// Best effort: the post-mortem copy is for people, not safety.
		dst := filepath.Join(s.dir, quarantineDir, ref.String())
		if os.MkdirAll(filepath.Dir(dst), 0o700) == nil {
			os.WriteFile(dst, corpse, 0o600) //nolint:errcheck
		}
	}
}

// Default background scrubbing rate: a pass over up to 256 MiB of
// chunk content every 30 seconds — roughly 8 MiB/s of sequential read,
// background noise against the bulk path it protects. Object servers
// and disk-backed edge caches both scrub at it.
const (
	defaultScrubEvery = 30 * time.Second
	// DefaultScrubBytes bounds each background pass; hosts that also
	// run passes of their own size them with it.
	DefaultScrubBytes = 256 << 20
)

// StartScrubber launches a background goroutine that scrubs up to
// DefaultScrubBytes of content every interval and hands each pass's
// result to onPass. interval 0 selects the default of 30 s; a negative
// one, or a memory store, starts nothing. It returns a stop function;
// hosts call it before discarding the store. Starting a second
// scrubber stops the first.
func (s *Store) StartScrubber(interval time.Duration, onPass func(ScrubResult)) (stop func()) {
	if interval == 0 {
		interval = defaultScrubEvery
	}
	if s.dir == "" || interval < 0 {
		return func() {}
	}
	s.StopScrubber()

	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	s.scrubMu.Lock()
	s.scrubStop, s.scrubDone = stopCh, doneCh
	s.scrubMu.Unlock()

	go func() {
		defer close(doneCh)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				onPass(s.Scrub(DefaultScrubBytes))
			}
		}
	}()
	return s.StopScrubber
}

// StopScrubber halts the background scrubber, waiting for an in-flight
// pass to finish. It is safe to call when none is running.
func (s *Store) StopScrubber() {
	s.scrubMu.Lock()
	stopCh, doneCh := s.scrubStop, s.scrubDone
	s.scrubStop, s.scrubDone = nil, nil
	s.scrubMu.Unlock()
	if stopCh == nil {
		return
	}
	close(stopCh)
	<-doneCh
}
