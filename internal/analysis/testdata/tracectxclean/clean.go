// Package tracectxcleantest holds the propagation idioms tracectx
// must accept: forwarding the in-scope context, and the sanctioned
// untraced entry points that root a fresh trace because they have no
// context to forward.
package tracectxcleantest

import (
	"io"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/rpc"
)

func forwards(tc obs.SpanContext, c *rpc.Client) error {
	_, _, err := c.Call(tc, 1, nil)
	return err
}

func forwardsPeer(tc obs.SpanContext, p *core.PeerClient) error {
	_, err := p.CallStream(tc, 2, nil)
	return err
}

// Entry is an untraced convenience wrapper: no span context in scope,
// so rooting with the zero value is exactly what it should do.
func Entry(c *rpc.Client) error {
	_, _, err := c.Call(obs.SpanContext{}, 1, nil)
	return err
}

// untracedRead: calling an untraced twin is fine outside a traced
// path.
func untracedRead(s *pkgobj.Stub, w io.Writer) error {
	_, err := s.ReadFileTo(w, "x")
	return err
}
