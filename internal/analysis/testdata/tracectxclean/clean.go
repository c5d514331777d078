// Package tracectxcleantest holds the propagation idioms tracectx
// must accept: forwarding the in-scope context through T-variants, and
// the sanctioned untraced entry points that root a fresh trace because
// they have no context to forward.
package tracectxcleantest

import (
	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/rpc"
)

func forwards(tc obs.SpanContext, c *rpc.Client) error {
	_, _, err := c.CallT(tc, 1, nil)
	return err
}

func forwardsPeer(tc obs.SpanContext, p *core.PeerClient) error {
	_, err := p.CallStream(tc, 2, nil)
	return err
}

// Entry is an untraced convenience wrapper: no span context in scope,
// so rooting with the zero value is exactly what it should do.
func Entry(c *rpc.Client) error {
	_, _, err := c.CallT(obs.SpanContext{}, 1, nil)
	return err
}

// untracedCall: calling the untraced form is fine outside a traced
// path.
func untracedCall(c *rpc.Client) error {
	_, _, err := c.Call(1, nil)
	return err
}
