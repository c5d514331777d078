// Package bufowntest is the bufown golden package: every want comment
// pins a diagnostic the analyzer must produce against the real
// store/transport/rpc APIs.
package bufowntest

import (
	"os"

	"gdn/internal/rpc"
	"gdn/internal/store"
	"gdn/internal/transport"
)

// leakOnEarlyReturn forgets the release on the size-check error path.
func leakOnEarlyReturn(s *store.Store, ref store.Ref, size int64) ([]byte, error) {
	data, release, err := s.GetZC(ref)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size {
		return nil, os.ErrInvalid // want `store\.GetZC buffer is not released`
	}
	out := make([]byte, len(data))
	copy(out, data)
	release()
	return out, nil
}

func doubleRelease(s *store.Store, ref store.Ref) error {
	_, release, err := s.GetZC(ref)
	if err != nil {
		return err
	}
	release()
	release() // want `store\.GetZC buffer is released twice`
	return nil
}

func useAfterRelease(s *store.Store, ref store.Ref) byte {
	data, release, err := s.GetZC(ref)
	if err != nil {
		return 0
	}
	release()
	return data[0] // want `use of store\.GetZC buffer after its release has fired`
}

func releaseAfterHandoff(sw *rpc.StreamWriter, s *store.Store, ref store.Ref) error {
	data, release, err := s.GetZC(ref)
	if err != nil {
		return err
	}
	if err := sw.SendOwned(data, release); err != nil {
		return err
	}
	release() // want `released after its ownership was handed to the send path`
	return nil
}

func useAfterHandoff(sw *rpc.StreamWriter, s *store.Store, ref store.Ref) byte {
	data, release, err := s.GetZC(ref)
	if err != nil {
		return 0
	}
	if err := sw.SendOwned(data, release); err != nil {
		return 0
	}
	return data[0] // want `use of store\.GetZC buffer after its ownership was handed`
}

func discardRelease(s *store.Store, ref store.Ref) []byte {
	data, _, err := s.GetZC(ref) // want `store\.GetZC buffer is discarded`
	if err != nil {
		return nil
	}
	return data
}

func leakHandle(s *store.Store, ref store.Ref) (int64, error) {
	f, size, err := s.OpenChunk(ref)
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, os.ErrInvalid // want `store\.OpenChunk handle is not released`
	}
	f.Close()
	return size, nil
}

func doublePut(n int) {
	p := transport.GetFrame(n)
	transport.PutFrame(p)
	transport.PutFrame(p) // want `transport\.GetFrame buffer is released twice`
}

// dropShortFrame mirrors a receive-path leak this analyzer caught in
// the real tree: an undersized frame dropped on the validation path
// without going back to the pool.
func dropShortFrame(c transport.Conn) ([]byte, error) {
	p, _, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if len(p) < 8 {
		return nil, os.ErrInvalid // want `received frame is not released`
	}
	return p, nil
}

// leakInLoop loses one frame per iteration on the skip path.
func leakInLoop(c transport.Conn, n int) error {
	for i := 0; i < n; i++ {
		p, _, err := c.Recv()
		if err != nil {
			return err
		}
		if len(p) == 0 {
			continue // want `received frame is not released`
		}
		transport.PutFrame(p)
	}
	return nil
}
