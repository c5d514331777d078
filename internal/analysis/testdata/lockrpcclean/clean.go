// Package lockrpccleantest holds the lock idioms lockrpc must accept:
// surgery-only shard holds, calls after the unlock, non-blocking
// sends, and connection-level (non-shard) mutexes held across writes.
package lockrpccleantest

import (
	"sync"

	"gdn/internal/rpc"
	"gdn/internal/transport"
)

type tableShard struct {
	mu      sync.Mutex
	waiters map[uint64]chan []byte
}

// unlockThenCall is the withdraw-then-notify idiom the real pending
// table uses: drop the shard lock before anything that can block.
func unlockThenCall(sh *tableShard, c *rpc.Client, id uint64, p []byte) {
	sh.mu.Lock()
	ch := sh.waiters[id]
	delete(sh.waiters, id)
	sh.mu.Unlock()
	if ch != nil {
		ch <- p
	}
	c.Call(1, nil)
}

// nonBlockingSend: a select with a default never parks the shard.
func nonBlockingSend(sh *tableShard, id uint64, p []byte) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case sh.waiters[id] <- p:
		return true
	default:
		return false
	}
}

// sequencer is connection-level state, not a shard: holding its mutex
// across a send (as a security channel does to keep records in
// sequence order) is legitimate.
type sequencer struct {
	mu   sync.Mutex
	next uint64
}

func sendInOrder(s *sequencer, conn transport.Conn, p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return conn.Send(p)
}
