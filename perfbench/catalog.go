package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"gdn/internal/pkgobj"
	"gdn/internal/store"
)

// fileSpec is one generated file. The generator keeps its size, digest
// and chunk references, never its bytes: contents are regenerated from
// contentSeed whenever they are needed, so the generator's own heap
// stays small and constant however much the catalogue holds.
type fileSpec struct {
	pkg         string // package name, e.g. /bench/p042
	path        string // file path inside the package
	size        int
	contentSeed uint64
	digest      [sha256.Size]byte
	refs        []store.Ref // content addresses of its 256 KiB chunks
}

// url is the edge URL path of the file.
func (f *fileSpec) url() string { return "/pkg" + f.pkg + "/-/" + f.path }

// fillContent fills buf with the content stream of a seed.
func fillContent(buf []byte, seed uint64) {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	binary.LittleEndian.PutUint64(key[8:], 0x9e3779b97f4a7c15)
	rand.NewChaCha8(key).Read(buf)
}

// describe computes a generated file's digest and chunk references,
// chunking exactly as the package object does.
func (f *fileSpec) describe(content []byte) {
	f.digest = sha256.Sum256(content)
	f.refs = f.refs[:0]
	for off := 0; off < len(content); off += pkgobj.DefaultChunkSize {
		end := min(off+pkgobj.DefaultChunkSize, len(content))
		f.refs = append(f.refs, store.RefOf(content[off:end]))
	}
}

// rng returns a deterministic generator for one stream of a seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// logUniform maps u in [0,1] onto [lo, hi] log-uniformly.
func logUniform(u float64, lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), u)))
}

// smallCatalogue lays out packages × files small files, log-uniform in
// 4–256 KiB. The file at popularity rank r gets the size at position
// frac((r+1)·φ) of the log-uniform range, jittered by the seed, so size
// and popularity are uncorrelated and the Zipf-weighted mean size — and
// with it the work per request — does not swing from seed to seed. The
// seed picks every file's contents, which package each rank lands in,
// and (in the clients) the request sequence. Files are returned in
// popularity order.
func smallCatalogue(seed uint64, packages, files int) []*fileSpec {
	r := rng(seed, 1)
	n := packages * files
	slots := r.Perm(n)
	out := make([]*fileSpec, n)
	for rank := range out {
		u := math.Mod(float64(rank+1)*0.6180339887498949, 1)
		u = min(1, max(0, u+(r.Float64()-0.5)*0.02))
		slot := slots[rank]
		out[rank] = &fileSpec{
			pkg:         fmt.Sprintf("/bench/p%03d", slot/files),
			path:        fmt.Sprintf("f%02d.bin", slot%files),
			size:        logUniform(u, 4<<10, 256<<10),
			contentSeed: r.Uint64(),
		}
	}
	return out
}

// bulkCatalogue lays out the large files: 8, 20 and 32 MiB, each
// jittered by up to ±2% by the seed. Three sizes make the median
// operation the middle file's, so op_p50_ms does not flip between
// size classes from run to run.
func bulkCatalogue(seed uint64) []*fileSpec {
	r := rng(seed, 2)
	var out []*fileSpec
	for i, mib := range []int{8, 20, 32} {
		size := float64(mib<<20) * (1 + (r.Float64()-0.5)*0.04)
		out = append(out, &fileSpec{
			pkg:         "/bench/bulk",
			path:        fmt.Sprintf("blob%d.bin", i),
			size:        int(size),
			contentSeed: r.Uint64(),
		})
	}
	return out
}

// zipf draws ranks 0..n-1 with P(r) ∝ (r+1)^-s. math/rand's Zipf needs
// s > 1; the paper-era download mixes sit just below it.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}
