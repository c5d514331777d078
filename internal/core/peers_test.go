package core

import (
	"slices"
	"testing"
	"time"

	"gdn/internal/gls"
)

// peersEnv builds a minimal Env with a controllable clock and two
// candidate addresses.
func peersEnv(now *time.Time, addrs ...string) *Env {
	cas := make([]gls.ContactAddress, len(addrs))
	for i, a := range addrs {
		cas[i] = gls.ContactAddress{Address: a}
	}
	return &Env{
		Peers: cas,
		Clock: func() time.Time { return *now },
		Logf:  func(string, ...any) {},
	}
}

// TestPeerSetHealthIsPerOperationClass: a peer that times out on reads
// but serves writes (an asymmetric partition) must stay write-eligible
// while its read traffic is diverted — and write successes must not
// resurrect its read health.
func TestPeerSetHealthIsPerOperationClass(t *testing.T) {
	now := time.Unix(1e9, 0)
	ps, err := NewPeerSet(peersEnv(&now, "a:disp", "b:disp"), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		ps.noteFailure("a:disp", false) // reads keep failing
		ps.noteSuccess("a:disp", true, 0)
	}
	st := ps.peers["a:disp"]
	if got := st.tier(opRead, now); got != tierBackedOff {
		t.Fatalf("read tier = %d, want backed off", got)
	}
	if got := st.tier(opWrite, now); got != tierGood {
		t.Fatalf("write tier = %d, want good despite read failures", got)
	}
	// Reads always route to the healthy peer first while the streak is
	// active; writes still consider both (ranking within the good tier
	// is shuffled, so only membership is asserted).
	for i := 0; i < 50; i++ {
		if got := ps.candidates(false)[0]; got != "b:disp" {
			t.Fatalf("read candidate[0] = %q, want b:disp", got)
		}
	}
	if got := ps.candidates(true); len(got) != 2 {
		t.Fatalf("write candidates = %v, want both", got)
	}
}

// TestPeerSetBackoffExpiryProbesInsteadOfFlapping: when a failed
// peer's backoff expires it must rank behind every healthy candidate
// (a probe), not jump back into the healthy group — the flap that
// re-herded traffic onto a still-partitioned peer every backoff
// period. Only a real success restores it.
func TestPeerSetBackoffExpiryProbesInsteadOfFlapping(t *testing.T) {
	now := time.Unix(1e9, 0)
	ps, err := NewPeerSet(peersEnv(&now, "a:disp", "b:disp"), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ps.noteFailure("a:disp", false)
	now = now.Add(peerMaxBackoff) // far past the streak's backoff
	st := ps.peers["a:disp"]
	if got := st.tier(opRead, now); got != tierProbe {
		t.Fatalf("tier after backoff expiry = %d, want probe", got)
	}
	// The probing peer never outranks the healthy one, however often
	// the (shuffled) ranking is recomputed.
	for i := 0; i < 50; i++ {
		if got := ps.candidates(false)[0]; got != "b:disp" {
			t.Fatalf("candidate[0] = %q, want healthy peer first", got)
		}
	}
	ps.noteSuccess("a:disp", false, 0)
	if got := st.tier(opRead, now); got != tierGood {
		t.Fatalf("tier after successful probe = %d, want good", got)
	}
}

// TestPeerSetSeedReplays: two peer sets drawn from the same seed rank
// equal candidates in the same order, call after call — the shuffle
// among equals follows the seed, not the peer map's iteration order.
func TestPeerSetSeedReplays(t *testing.T) {
	now := time.Unix(1e9, 0)
	addrs := []string{"a:disp", "b:disp", "c:disp", "d:disp", "e:disp", "f:disp"}
	rankings := func() [][]string {
		peerSeed.Store(41)
		ps, err := NewPeerSet(peersEnv(&now, addrs...), "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for i := 0; i < 20; i++ {
			out = append(out, ps.candidates(false))
		}
		return out
	}
	first := rankings()
	for run := 0; run < 5; run++ {
		if got := rankings(); !slices.EqualFunc(got, first, slices.Equal[[]string]) {
			t.Fatalf("run %d ranked %v, the first run %v", run, got, first)
		}
	}
}
