// Package tracectxtest is the tracectx golden package: traced
// functions that drop or re-root the span context.
package tracectxtest

import (
	"io"

	"gdn/internal/core"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/rpc"
)

// rerootOnPeer: PeerClient.Call has no untraced twin, so a traced
// caller can only lose the trace by passing the zero context.
func rerootOnPeer(tc obs.SpanContext, p *core.PeerClient) error {
	_, _, err := p.Call(obs.SpanContext{}, 2, nil) // want `zero obs\.SpanContext\{\} re-roots the trace`
	return err
}

func dropOnStub(tc obs.SpanContext, s *pkgobj.Stub, w io.Writer) error {
	_, err := s.ReadFileTo(w, "/x") // want `call to ReadFileTo drops the trace .* call ReadFileToT`
	return err
}

func reroot(tc obs.SpanContext, c *rpc.Client) error {
	_, _, err := c.Call(obs.SpanContext{}, 1, nil) // want `zero obs\.SpanContext\{\} re-roots the trace`
	return err
}

// rerootInClosure: the span context is still in scope inside a closure
// spawned by a traced function.
func rerootInClosure(tc obs.SpanContext, c *rpc.Client) func() error {
	return func() error {
		_, _, err := c.Call(obs.SpanContext{}, 1, nil) // want `zero obs\.SpanContext\{\} re-roots the trace`
		return err
	}
}
