// Package lockrpctest is the lockrpc golden package: blocking
// operations while holding a shard mutex.
package lockrpctest

import (
	"sync"

	"gdn/internal/core"
	"gdn/internal/rpc"
	"gdn/internal/transport"
)

// tableShard mirrors the striped pending-table/store shards the rule
// protects: the "shard" in the type name is what marks the mutex.
type tableShard struct {
	mu      sync.Mutex
	waiters map[uint64]chan []byte
}

func callUnderLock(sh *tableShard, c *rpc.Client) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.Call(1, nil) // want `rpc\.Client\.Call while holding lockrpctest\.tableShard mutex`
}

func peerCallUnderLock(sh *tableShard, p *core.PeerClient) {
	sh.mu.Lock()
	p.Call(1, nil) // want `core\.PeerClient\.Call while holding`
	sh.mu.Unlock()
}

func streamSendUnderLock(sh *tableShard, sw *rpc.StreamWriter, p []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sw.Send(p) // want `rpc\.StreamWriter\.Send while holding`
}

func transportWriteUnderLock(sh *tableShard, conn transport.Conn, frames []transport.Frame) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	conn.SendFrames(frames) // want `transport\.Conn\.SendFrames while holding`
}

func connSendUnderLock(sh *tableShard, conn transport.Conn, p []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	conn.Send(p) // want `transport\.Conn\.Send while holding`
}

func channelSendUnderLock(sh *tableShard, id uint64, p []byte) {
	sh.mu.Lock()
	ch := sh.waiters[id]
	ch <- p // want `channel send may block while holding`
	sh.mu.Unlock()
}

func blockingSelectUnderLock(sh *tableShard, id uint64, p []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case sh.waiters[id] <- p: // want `channel send may block while holding`
	}
}

// rlockCounts: read locks stall writers just the same.
type storeShard struct {
	mu sync.RWMutex
}

func rlockCounts(sh *storeShard, c *rpc.Client) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c.Call(1, nil) // want `rpc\.Client\.Call while holding lockrpctest\.storeShard mutex`
}

// recShard and clientShard mirror the GLS striped record table and
// client-connection stripes: the mutex is reached through an array of
// shard structs, and the rule must still mark it.
type recShard struct {
	mu   sync.RWMutex
	recs map[uint64]int
}

type clientShard struct {
	mu sync.Mutex
	m  map[string]*rpc.Client
}

type dirNode struct {
	shards  [16]recShard
	clients [8]clientShard
}

func lookupViaArrayShard(n *dirNode, c *rpc.Client) {
	sh := &n.shards[0]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c.Call(1, nil) // want `rpc\.Client\.Call while holding lockrpctest\.recShard mutex`
}

func closeUnderClientStripe(n *dirNode) {
	sh := &n.clients[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.m {
		c.Close() // want `rpc\.Client\.Close while holding lockrpctest\.clientShard mutex`
	}
}
