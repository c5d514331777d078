package gos

import (
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/store"
	"gdn/internal/transport"
	"gdn/internal/wire"
)

// Client commands one Globe Object Server; moderator tools hold one per
// server in a replication scenario.
type Client struct {
	rpc *rpc.Client
}

// NewClient connects to the GOS command endpoint at addr. auth carries
// the caller's (moderator) credentials when the server enforces
// admission.
func NewClient(net transport.Network, site, addr string, auth *sec.Config) *Client {
	var opts []rpc.ClientOption
	if auth != nil {
		opts = append(opts, rpc.WithClientWrapper(auth.WrapClient))
	}
	return &Client{rpc: rpc.NewClient(net, site, addr, opts...)}
}

// ClientOf commands the server at c's address over c, a client the
// caller borrows from its table; the table's owner closes it.
func ClientOf(c *rpc.Client) *Client { return &Client{rpc: c} }

// Addr returns the server's command address.
func (c *Client) Addr() string { return c.rpc.Addr() }

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// CreateReplica asks the server to host one replica, returning the
// object identifier (allocated when the request's was nil) and the
// registered contact address.
func (c *Client) CreateReplica(req CreateRequest) (ids.OID, gls.ContactAddress, time.Duration, error) {
	resp, cost, err := c.rpc.Call(obs.SpanContext{}, OpCreateReplica, req.Encode())
	if err != nil {
		return ids.Nil, gls.ContactAddress{}, cost, err
	}
	r := wire.NewReader(resp)
	oid := r.OID()
	caBytes := r.Bytes32()
	if err := r.Done(); err != nil {
		return ids.Nil, gls.ContactAddress{}, cost, err
	}
	cas, err := gls.DecodeAddrs(caBytes)
	if err != nil || len(cas) != 1 {
		return ids.Nil, gls.ContactAddress{}, cost, err
	}
	return oid, cas[0], cost, nil
}

// RemoveReplica tears one replica down and deregisters it.
func (c *Client) RemoveReplica(oid ids.OID) (time.Duration, error) {
	w := wire.NewWriter(ids.Size)
	w.OID(oid)
	_, cost, err := c.rpc.Call(obs.SpanContext{}, OpRemoveReplica, w.Bytes())
	return cost, err
}

// ListReplicas returns the replicas the server hosts.
func (c *Client) ListReplicas() ([]ReplicaInfo, error) {
	resp, _, err := c.rpc.Call(obs.SpanContext{}, OpListReplicas, nil)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp)
	n := r.Count()
	if r.Err() != nil {
		return nil, r.Err()
	}
	infos := make([]ReplicaInfo, 0, n)
	for i := 0; i < n; i++ {
		infos = append(infos, ReplicaInfo{
			OID:      r.OID(),
			Impl:     r.Str(),
			Protocol: r.Str(),
			Role:     r.Str(),
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return infos, nil
}

// Checkpoint forces the server to write all replica state to disk.
func (c *Client) Checkpoint() error {
	_, _, err := c.rpc.Call(obs.SpanContext{}, OpCheckpoint, nil)
	return err
}

// PutChunks makes every listed chunk present in the server's store,
// shipping only the ones it is missing (core.PutChunks over OpChunkHave
// and an OpPutChunks upload stream), so a re-deploy of unchanged
// content uploads nothing. A moderator deploying a package runs this
// before sending the manifest-bearing create command.
func (c *Client) PutChunks(src core.ChunkSource, refs []store.Ref) (core.UploadStats, time.Duration, error) {
	return core.PutChunks(obs.SpanContext{}, c.rpc, OpChunkHave, OpPutChunks, src, refs)
}

// ServerInfo describes one object server.
type ServerInfo struct {
	Site    string
	ObjAddr string
	Hosted  int
}

// Info returns the server's site, replica-traffic address and load.
func (c *Client) Info() (ServerInfo, error) {
	resp, _, err := c.rpc.Call(obs.SpanContext{}, OpServerInfo, nil)
	if err != nil {
		return ServerInfo{}, err
	}
	r := wire.NewReader(resp)
	info := ServerInfo{Site: r.Str(), ObjAddr: r.Str(), Hosted: int(r.Uint32())}
	if err := r.Done(); err != nil {
		return ServerInfo{}, err
	}
	return info, nil
}
