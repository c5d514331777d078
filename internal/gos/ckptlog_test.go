package gos

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"gdn/internal/ids"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
)

// TestCheckpointLogSupersedesAndTombstones drives the checkpoint
// table's lifecycle: repeated checkpoints append superseding puts,
// removal appends a delete, and recovery replays to the latest
// surviving image per object.
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

// TestStartRejectsHeaderlessCheckpointLog: a checkpoints.log in the
// retired headerless format (a kind byte, then the image) fails Start
// and is left byte-identical, so no checkpoint is silently dropped.
func TestStartRejectsHeaderlessCheckpointLog(t *testing.T) {
	f := newFixture(t, nil)
	stateDir := t.TempDir()
	path := filepath.Join(stateDir, "checkpoints.log")
	oid := ids.Derive("old-format")
	var before []byte
	for _, p := range [][]byte{
		append([]byte{1}, oid[:]...), // an image frame
		append([]byte{2}, oid[:]...), // a tombstone frame
	} {
		before = binary.BigEndian.AppendUint32(before, uint32(len(p)))
		before = binary.BigEndian.AppendUint32(before, crc32.ChecksumIEEE(p))
		before = append(before, p...)
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := Start(f.net, Config{
		Site: "eu-gos", CmdAddr: "eu-gos:gos-cmd", ObjAddr: "eu-gos:gos-obj",
		Runtime: f.rts["eu-gos"], StateDir: stateDir,
	})
	if err == nil {
		srv.Close()
		t.Fatal("Start accepted a headerless checkpoint log")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("failed Start changed the checkpoint log")
	}
}
