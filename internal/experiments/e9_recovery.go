package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gdn"
	"gdn/internal/gos"
	"gdn/internal/pkgobj"
)

// E9Config tunes the persistence experiment.
type E9Config struct {
	// Sizes of the checkpointed package (default 100 KiB, 1 MiB, 10 MiB).
	Sizes []int
}

// E9Recovery measures the object-server persistence path of §4:
// "Globe Object Servers allow replicas to save their state during a
// reboot and reconstruct themselves afterwards." For each package size
// the table reports the checkpoint time, the on-disk checkpoint size,
// the recovery (restart) time, and verifies that the recovered replica
// answers a bind with intact content.
func E9Recovery(cfg E9Config) *Table {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{100 << 10, 1 << 20, 10 << 20}
	}
	t := &Table{
		ID:      "E9",
		Title:   "object-server checkpoint and crash recovery (§4)",
		Columns: []string{"package KB", "checkpoint ms", "disk KB", "recovery ms", "verified"},
		Notes:   "wall-clock times; recovery includes replica reconstruction and GLS re-registration",
	}
	for _, size := range cfg.Sizes {
		ckptMS, diskKB, recMS, ok := runE9(size)
		verified := "yes"
		if !ok {
			verified = "NO"
		}
		t.AddRow(fmt.Sprint(size/1024),
			fmt.Sprintf("%.2f", ckptMS),
			fmt.Sprintf("%.0f", diskKB),
			fmt.Sprintf("%.2f", recMS),
			verified,
		)
	}
	return t
}

func runE9(size int) (ckptMS, diskKB, recMS float64, verified bool) {
	w := newWorld(gdn.DefaultTopology())
	defer w.Close()

	stateDir, err := os.MkdirTemp("", "gdn-e9-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(stateDir)

	// A dedicated GOS with persistence (the world's default servers
	// run without state directories).
	site := "eu-nl-vu"
	rt, err := w.UserRuntime(site)
	if err != nil {
		panic(err)
	}
	srv, err := gos.Start(w.Net, gos.Config{
		Site:     site,
		CmdAddr:  site + ":gos9-cmd",
		ObjAddr:  site + ":gos9-obj",
		Runtime:  rt,
		StateDir: stateDir,
	})
	if err != nil {
		panic(err)
	}

	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i)
	}
	state, chunks, err := pkgobj.Stage(map[string][]byte{"pkg.tar": content}, nil)
	if err != nil {
		panic(err)
	}
	refs, err := pkgobj.StateRefs(state)
	if err != nil {
		panic(err)
	}
	cl := gos.NewClient(w.Net, site, site+":gos9-cmd", nil)
	if _, _, err := cl.PutChunks(chunks, refs); err != nil {
		panic(err)
	}
	oid, _, _, err := cl.CreateReplica(gos.CreateRequest{
		Impl: pkgobj.Impl, Protocol: gdn.ProtocolClientServer, Role: "server",
		InitState: state,
	})
	if err != nil {
		panic(err)
	}

	start := time.Now()
	if err := cl.Checkpoint(); err != nil {
		panic(err)
	}
	ckptMS = float64(time.Since(start)) / 1e6
	cl.Close()

	var diskBytes int64
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(stateDir, e.Name()))
		if err == nil {
			diskBytes += info.Size()
		}
	}
	diskKB = float64(diskBytes) / 1024

	// Crash, then restart on a fresh command address (the simulated
	// listener namespace is per-address) with the same object address.
	srv.Close()
	start = time.Now()
	srv2, err := gos.Start(w.Net, gos.Config{
		Site:     site,
		CmdAddr:  site + ":gos9-cmd2",
		ObjAddr:  site + ":gos9-obj",
		Runtime:  rt,
		StateDir: stateDir,
	})
	if err != nil {
		panic(err)
	}
	recMS = float64(time.Since(start)) / 1e6
	defer srv2.Close()

	// A client on another continent binds and verifies the content.
	userRT, err := w.UserRuntime("na-ny-cu")
	if err != nil {
		panic(err)
	}
	lr, _, err := userRT.Bind(oid)
	if err != nil {
		return ckptMS, diskKB, recMS, false
	}
	defer lr.Close()
	got, err := pkgobj.NewStub(lr).GetFileContents("pkg.tar")
	verified = err == nil && len(got) == size && got[size-1] == byte(size-1)
	return ckptMS, diskKB, recMS, verified
}
