package gos

import (
	"os"
	"path/filepath"
	"testing"

	"gdn/internal/pkgobj"
	"gdn/internal/repl"
)

// TestCheckpointLogSupersedesAndTombstones drives the append-log
// checkpoint lifecycle: repeated checkpoints append superseding image
// frames, removal appends a tombstone, and recovery replays to the
// latest surviving image per object.
func TestCheckpointLogSupersedesAndTombstones(t *testing.T) {
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	srv := f.startGOS("eu-gos", stateDir, nil)

	cl := NewClient(f.net, "mod", "eu-gos:gos-cmd", nil)
	defer cl.Close()
	doomed, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}
	kept, _, _, err := cl.CreateReplica(CreateRequest{
		Impl: pkgobj.Impl, Protocol: repl.ClientServer, Role: repl.RoleServer,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint twice (two generations of image frames), then remove
	// one replica — its tombstone must retract both its images.
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RemoveReplica(doomed); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(stateDir, "checkpoints.log")); err != nil {
		t.Fatalf("no checkpoint log: %v", err)
	}

	srv.Close() // crash
	srv2 := f.restartGOS("eu-gos", stateDir)
	if srv2.Hosted() != 1 {
		t.Fatalf("recovered %d replicas, want 1 (tombstoned one resurrected?)", srv2.Hosted())
	}
	if _, ok := srv2.HostedLR(kept); !ok {
		t.Fatalf("surviving replica %s not recovered", kept.Short())
	}
	if _, ok := srv2.HostedLR(doomed); ok {
		t.Fatalf("removed replica %s resurrected from stale image frames", doomed.Short())
	}
}
