// Package suppresstest exercises the //gdnlint:ignore directive: a
// reasoned directive silences the named analyzer on its line and the
// next, a reasonless one is itself a finding and silences nothing.
package suppresstest

import (
	"sync"

	"gdn/internal/obs"
	"gdn/internal/rpc"
)

type pendShard struct {
	mu sync.Mutex
}

// sanctioned carries a reasoned suppression: no lockrpc finding here.
func sanctioned(sh *pendShard, c *rpc.Client) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	//gdnlint:ignore lockrpc golden fixture: the callee is a recording stub that cannot block
	c.Call(obs.SpanContext{}, 1, nil)
}

// unexplained carries a reasonless directive: the directive is
// reported and the finding it failed to suppress survives.
func unexplained(sh *pendShard, c *rpc.Client) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	//gdnlint:ignore
	c.Call(obs.SpanContext{}, 1, nil)
}
