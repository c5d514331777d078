package gls

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gdn/internal/ids"
)

// TestShardDistribution checks that routing by the OID's trailing byte
// actually spreads uniform identifiers over every record stripe — a
// skewed map would quietly serialize the "parallel" hot path.
func TestShardDistribution(t *testing.T) {
	_, tree := deployWorld(t)
	sess := openTestSession(t, mustResolver(t, tree, "eu-nl-vu", "eu/nl"), "eu-nl-vu:gos/obj", longTTL)

	const inserts = 512
	for i := 0; i < inserts; i++ {
		if _, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu")); err != nil {
			t.Fatal(err)
		}
	}
	leaf := tree.domains["eu/nl"].nodes[0]
	populated := 0
	for i := range leaf.shards {
		leaf.shards[i].mu.RLock()
		if len(leaf.shards[i].recs) > 0 {
			populated++
		}
		leaf.shards[i].mu.RUnlock()
	}
	if populated < recShards/2 {
		t.Fatalf("512 random OIDs landed in only %d/%d shards", populated, recShards)
	}
	if got := leaf.Records(); got != inserts {
		t.Fatalf("Records() = %d across shards, want %d", got, inserts)
	}
}

// TestConcurrentLookupInsertExpiry hammers one directory node with
// parallel lookups, session attaches and session expiries; run under
// -race it proves the striped table needs no global lock.
func TestConcurrentLookupInsertExpiry(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	leaf := tree.domains["eu/nl"].nodes[0]

	// Seed a working set the lookers race over, on an hour-long session.
	seedRes := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	seedSess := openTestSession(t, seedRes, "eu-nl-vu:gos/seed", time.Hour)
	var seeded []ids.OID
	for i := 0; i < 64; i++ {
		oid, _, err := seedSess.Attach(ids.Nil, testAddr("eu-nl-vu"))
		if err != nil {
			t.Fatal(err)
		}
		seeded = append(seeded, oid)
	}

	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, workers*3)

	for w := 0; w < workers; w++ {
		r := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
		short := openTestSession(t, r, "eu-nl-vu:gos/short", time.Second)
		wg.Add(3)
		// Attachers: short sessions, so the sweeps below find work.
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if _, _, err := short.Attach(ids.Nil, testAddr("eu-nl-vu")); err != nil {
					errc <- err
					return
				}
			}
		}()
		// Lookers over the stable seeded set.
		go func(r *Resolver) {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				if _, _, err := r.Lookup(seeded[i%len(seeded)]); err != nil {
					errc <- err
					return
				}
			}
		}(r)
		// Janitors racing everyone, one stripe at a time.
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				leaf.sweepShard(nil, i%recShards, expiredAt(clock.Now()))
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Expire the short sessions and sweep every stripe: only the
	// hour-long seeds must survive.
	clock.Advance(2 * time.Second)
	leaf.SweepExpired()
	if got := leaf.Records(); got != len(seeded) {
		t.Fatalf("after expiry sweep: %d records, want %d", got, len(seeded))
	}
}

// TestLookupDescentRacesSweep exercises the up-phase/down-phase walk
// (root pointer -> leaf addresses) while the janitor concurrently
// tears down expiring chains on both nodes. Under -race this is the
// lookup-descent vs sweep-janitor interleaving.
func TestLookupDescentRacesSweep(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	leaf := tree.domains["eu/nl"].nodes[0]
	region := tree.domains["eu"].nodes[0]
	root := tree.domains["root"].nodes[0]

	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")
	// Far resolver: its lookups climb to the root and descend the
	// pointer chain back down into eu/nl.
	far := mustResolver(t, tree, "us-ca-ucb", "us/ca")

	stableSess := openTestSession(t, res, "eu-nl-vu:gos/stable", time.Hour)
	churnSess := openTestSession(t, res, "eu-nl-vu:gos/churn", time.Second)
	var stable []ids.OID
	for i := 0; i < 32; i++ {
		oid, _, err := stableSess.Attach(ids.Nil, testAddr("eu-nl-vu"))
		if err != nil {
			t.Fatal(err)
		}
		stable = append(stable, oid)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, 4)

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 120; i++ {
			if _, _, err := far.Lookup(stable[i%len(stable)]); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Churner: short-session attaches whose pointer chains the janitor
	// tears down mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 40; i++ {
			if _, _, err := churnSess.Attach(ids.Nil, testAddr("eu-nl-vu")); err != nil {
				errc <- err
				return
			}
		}
	}()
	// Janitors on every level of the tree.
	for _, n := range []*Node{leaf, region, root} {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			<-start
			for i := 0; i < 60; i++ {
				n.sweepShard(nil, i%recShards, expiredAt(clock.Now()))
			}
		}(n)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every stable object still resolves through the full descent.
	for _, oid := range stable {
		if _, _, err := far.Lookup(oid); err != nil {
			t.Fatalf("descent lost %s: %v", oid.Short(), err)
		}
	}
}

// TestConcurrentSessionRenewalAndExpiry races session heartbeats
// against the session reaper and lookups of attached entries.
func TestConcurrentSessionRenewalAndExpiry(t *testing.T) {
	tree, clock := deployLeaseWorld(t)
	leaf := tree.domains["eu/nl"].nodes[0]
	res := mustResolver(t, tree, "eu-nl-vu", "eu/nl")

	sess, _, err := res.OpenSession("eu-nl-vu:gos/obj", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var oids []ids.OID
	for i := 0; i < 16; i++ {
		oid, _, err := sess.Attach(ids.Nil, testAddr("eu-nl-vu"))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	errc := make(chan error, 3)
	wg.Add(3)
	go func() { // heartbeat
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			if _, err := sess.Renew(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // reaper + lease sweeps, clock creeping forward
		defer wg.Done()
		<-start
		for i := 0; i < 50; i++ {
			clock.Advance(100 * time.Millisecond)
			leaf.SweepExpired()
		}
	}()
	go func() { // lookups of the attached entries
		defer wg.Done()
		<-start
		for i := 0; i < 100; i++ {
			if _, _, err := res.Lookup(oids[i%len(oids)]); err != nil && !errors.Is(err, ErrNotFound) {
				errc <- err
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The heartbeats kept the session alive through 5s of clock
	// advance (TTL 10s): everything must still resolve.
	for _, oid := range oids {
		if _, _, err := res.Lookup(oid); err != nil {
			t.Fatalf("attached entry %s lost: %v", oid.Short(), err)
		}
	}
}
