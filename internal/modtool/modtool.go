// Package modtool implements the moderator tool: the program a GDN
// moderator uses to add, update and remove package DSOs (paper §4,
// §6.1). Creating a package follows the paper's procedure exactly:
//
//  1. the moderator defines a replication scenario — protocol plus the
//     object servers that should host replicas;
//  2. a "create first replica" command goes to the first server in the
//     scenario, which constructs the replica, registers a contact
//     address with the location service (allocating the object
//     identifier), and returns the identifier;
//  3. the remaining servers receive "bind to DSO <OID>, create replica"
//     commands and register their replicas too;
//  4. the name is registered with the Globe Name Service through the
//     GNS Naming Authority.
//
// The scenario is recorded in the package's metadata so later updates
// and removals know every hosting server without an exhaustive
// location-service walk.
package modtool

import (
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"gdn/internal/core"
	"gdn/internal/gls"
	"gdn/internal/gns"
	"gdn/internal/gos"
	"gdn/internal/ids"
	"gdn/internal/pkgobj"
	"gdn/internal/repl"
	"gdn/internal/rpc"
	"gdn/internal/sec"
	"gdn/internal/transport"
)

// ScenarioMetaKey is the package metadata key holding the encoded
// replication scenario.
const ScenarioMetaKey = "gdn.scenario"

// ModifiedMetaKey is the package metadata key holding the time of the
// last moderator change, as decimal Unix seconds. It replicates with
// the rest of the state, so every replica agrees on it; the GDN HTTPD
// serves it as Last-Modified for clients too dumb for ETags.
const ModifiedMetaKey = pkgobj.MetaModified

// modifiedNow renders the current time as a ModifiedMetaKey value.
func modifiedNow() string { return fmt.Sprintf("%d", time.Now().Unix()) }

// stampModified records the change time on a package.
func stampModified(stub *pkgobj.Stub) error {
	return stub.SetMeta(ModifiedMetaKey, modifiedNow())
}

// Config assembles a moderator tool.
type Config struct {
	// Site is where the moderator runs.
	Site string
	// Net is the transport network.
	Net transport.Network
	// Runtime binds to package DSOs; it must carry the moderator's
	// credentials when the deployment is secured, and a name service
	// for name-based operations.
	Runtime *core.Runtime
	// NamingAuthority is the GNS Naming Authority's address.
	NamingAuthority string
	// Auth carries the moderator's credentials for talking to object
	// servers and the naming authority; nil in unsecured deployments.
	Auth *sec.Config
}

// Tool is a moderator tool instance.
type Tool struct {
	cfg  Config
	gns  *gns.Client
	cmds *rpc.Clients // object-server command clients, one per server
}

// New builds a moderator tool.
func New(cfg Config) (*Tool, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("modtool: config needs a runtime")
	}
	if cfg.NamingAuthority == "" {
		return nil, fmt.Errorf("modtool: config needs the naming authority address")
	}
	var opts []rpc.ClientOption
	if cfg.Auth != nil {
		opts = append(opts, rpc.WithClientWrapper(cfg.Auth.WrapClient))
	}
	return &Tool{
		cfg:  cfg,
		gns:  gns.NewClient(cfg.Net, cfg.Site, cfg.NamingAuthority, cfg.Auth),
		cmds: rpc.NewClients(cfg.Net, cfg.Site, opts...),
	}, nil
}

// Close releases the tool's connections. The runtime belongs to
// whoever built it.
func (t *Tool) Close() error {
	t.cmds.Close()
	return t.gns.Close()
}

// headRole returns the role of a scenario's first replica.
func headRole(protocol string) (string, error) {
	switch protocol {
	case repl.ClientServer:
		return repl.RoleServer, nil
	case repl.MasterSlave:
		return repl.RoleMaster, nil
	case repl.Active:
		return repl.RoleSequencer, nil
	default:
		return "", fmt.Errorf("modtool: protocol %q cannot head a scenario", protocol)
	}
}

// tailRole returns the role of a scenario's additional replicas.
func tailRole(protocol string) (string, error) {
	switch protocol {
	case repl.ClientServer:
		return "", fmt.Errorf("modtool: %s supports a single replica; use masterslave or active to replicate", repl.ClientServer)
	case repl.MasterSlave:
		return repl.RoleSlave, nil
	case repl.Active:
		return repl.RolePeer, nil
	default:
		return "", fmt.Errorf("modtool: protocol %q cannot extend a scenario", protocol)
	}
}

// Package describes a package to create: its content files and
// human-readable metadata.
type Package struct {
	Files map[string][]byte
	Meta  map[string]string
}

// CreatePackage stages the package locally, deploys it under the given
// replication scenario, and registers its name. It returns the object
// identifier and the total virtual network cost of the deployment.
func (t *Tool) CreatePackage(name string, scenario core.Scenario, pkg Package) (ids.OID, time.Duration, error) {
	if err := scenario.Validate(); err != nil {
		return ids.Nil, 0, err
	}
	if len(scenario.Servers) > 1 {
		if _, err := tailRole(scenario.Protocol); err != nil {
			return ids.Nil, 0, err
		}
	}

	// Stage the content: the state the first replica starts from and
	// the chunk bodies it references, sliced from pkg.Files.
	meta := make(map[string]string, len(pkg.Meta)+2)
	for key, val := range pkg.Meta {
		meta[key] = val
	}
	meta[ScenarioMetaKey] = hex.EncodeToString(scenario.Encode())
	meta[ModifiedMetaKey] = modifiedNow()
	state, chunks, err := pkgobj.Stage(pkg.Files, meta)
	if err != nil {
		return ids.Nil, 0, fmt.Errorf("modtool: stage: %w", err)
	}

	var total time.Duration

	// The state is a manifest; ship the content chunks it references
	// ahead of it, in chunk-sized batches, so no frame ever scales
	// with package size. The remaining servers pull their chunks from
	// the first replica through the replication protocol's delta sync.
	refs, err := pkgobj.StateRefs(state)
	if err != nil {
		return ids.Nil, 0, err
	}

	// Create the first replica, seeding it with the staged state. The
	// object identifier is allocated during registration.
	role, err := headRole(scenario.Protocol)
	if err != nil {
		return ids.Nil, 0, err
	}
	// PutChunks negotiates first (OpChunkHave), so re-deploying a
	// package whose content the server mostly has — a version bump of
	// a large mostly-unchanged tree — uploads only the new chunks.
	first := t.gosClient(scenario.Servers[0])
	_, cost, err := first.PutChunks(chunks, refs)
	total += cost
	if err != nil {
		return ids.Nil, total, fmt.Errorf("modtool: upload content to %s: %w", scenario.Servers[0], err)
	}
	oid, firstCA, cost, err := first.CreateReplica(gos.CreateRequest{
		Impl:      pkgobj.Impl,
		Protocol:  scenario.Protocol,
		Role:      role,
		Params:    scenario.Params,
		InitState: state,
	})
	total += cost
	if err != nil {
		return ids.Nil, total, fmt.Errorf("modtool: create first replica at %s: %w", scenario.Servers[0], err)
	}

	// Additional replicas bind to the object and pull state from the
	// first replica through their protocol.
	if len(scenario.Servers) > 1 {
		tail, err := tailRole(scenario.Protocol)
		if err != nil {
			return ids.Nil, total, err
		}
		for _, server := range scenario.Servers[1:] {
			_, _, cost, err := t.gosClient(server).CreateReplica(gos.CreateRequest{
				OID:      oid,
				Impl:     pkgobj.Impl,
				Protocol: scenario.Protocol,
				Role:     tail,
				Params:   scenario.Params,
				Peers:    []gls.ContactAddress{firstCA},
			})
			total += cost
			if err != nil {
				return ids.Nil, total, fmt.Errorf("modtool: create replica at %s: %w", server, err)
			}
		}
	}

	// Finally, register the name.
	cost, err = t.gns.Add(name, oid)
	total += cost
	if err != nil {
		return ids.Nil, total, fmt.Errorf("modtool: register name %q: %w", name, err)
	}
	return oid, total, nil
}

// UpdatePackage binds to a package by name and applies fn to it; all
// writes travel through the object's replication protocol under the
// moderator's credentials.
func (t *Tool) UpdatePackage(name string, fn func(*pkgobj.Stub) error) (time.Duration, error) {
	lr, cost, err := t.cfg.Runtime.BindName(name)
	if err != nil {
		return cost, err
	}
	defer lr.Close()
	stub := pkgobj.NewStub(lr)
	if err := fn(stub); err != nil {
		return cost + stub.TakeCost(), err
	}
	if err := stampModified(stub); err != nil {
		return cost + stub.TakeCost(), err
	}
	return cost + stub.TakeCost(), nil
}

// RemovePackage removes every replica listed in the package's recorded
// scenario and deregisters the name.
func (t *Tool) RemovePackage(name string) (time.Duration, error) {
	lr, total, err := t.cfg.Runtime.BindName(name)
	if err != nil {
		return total, err
	}
	oid := lr.OID()
	stub := pkgobj.NewStub(lr)
	scenario, err := t.recordedScenario(stub)
	total += stub.TakeCost()
	lr.Close()
	if err != nil {
		return total, err
	}

	// Tear replicas down back to front so the state-holding head goes
	// last: protocols that pull state keep working while tails vanish.
	for i := len(scenario.Servers) - 1; i >= 0; i-- {
		cost, err := t.gosClient(scenario.Servers[i]).RemoveReplica(oid)
		total += cost
		if err != nil {
			return total, fmt.Errorf("modtool: remove replica at %s: %w", scenario.Servers[i], err)
		}
	}

	cost, err := t.gns.Remove(name)
	total += cost
	if err != nil {
		return total, fmt.Errorf("modtool: deregister name %q: %w", name, err)
	}
	return total, nil
}

// AddReplica extends a package's replication scenario with one more
// object server — the adaptation step of §3.1: replication scenarios
// "adapt to changes in popularity and rate of change".
func (t *Tool) AddReplica(name, server string) (time.Duration, error) {
	lr, total, err := t.cfg.Runtime.BindName(name)
	if err != nil {
		return total, err
	}
	defer lr.Close()
	stub := pkgobj.NewStub(lr)
	scenario, err := t.recordedScenario(stub)
	if err != nil {
		total += stub.TakeCost()
		return total, err
	}
	for _, s := range scenario.Servers {
		if s == server {
			total += stub.TakeCost()
			return total, fmt.Errorf("modtool: %s already hosts %q", server, name)
		}
	}
	tail, err := tailRole(scenario.Protocol)
	if err != nil {
		total += stub.TakeCost()
		return total, err
	}

	oid := lr.OID()
	// The head replica's contact address gives the new replica its
	// state source; it is the first entry of the recorded scenario.
	headCl := t.gosClient(scenario.Servers[0])
	infos, err := headCl.ListReplicas()
	var srvInfo gos.ServerInfo
	if err == nil {
		srvInfo, err = headCl.Info()
	}
	if err != nil {
		total += stub.TakeCost()
		return total, err
	}
	var headCA gls.ContactAddress
	for _, info := range infos {
		if info.OID == oid {
			headCA = gls.ContactAddress{
				Protocol: info.Protocol,
				Address:  srvInfo.ObjAddr,
				Impl:     info.Impl,
				Role:     info.Role,
			}
		}
	}
	if headCA.Address == "" {
		total += stub.TakeCost()
		return total, fmt.Errorf("modtool: head server %s no longer hosts %q", scenario.Servers[0], name)
	}

	_, _, cost, err := t.gosClient(server).CreateReplica(gos.CreateRequest{
		OID:      oid,
		Impl:     pkgobj.Impl,
		Protocol: scenario.Protocol,
		Role:     tail,
		Params:   scenario.Params,
		Peers:    []gls.ContactAddress{headCA},
	})
	total += cost
	if err != nil {
		return total, err
	}

	// Record the widened scenario.
	scenario.Servers = append(scenario.Servers, server)
	if err := stub.SetMeta(ScenarioMetaKey, hex.EncodeToString(scenario.Encode())); err != nil {
		total += stub.TakeCost()
		return total, err
	}
	total += stub.TakeCost()
	return total, nil
}

// Scenario returns the replication scenario recorded for a package.
func (t *Tool) Scenario(name string) (core.Scenario, error) {
	lr, _, err := t.cfg.Runtime.BindName(name)
	if err != nil {
		return core.Scenario{}, err
	}
	defer lr.Close()
	return t.recordedScenario(pkgobj.NewStub(lr))
}

func (t *Tool) recordedScenario(stub *pkgobj.Stub) (core.Scenario, error) {
	encoded, err := stub.GetMeta(ScenarioMetaKey)
	if err != nil {
		return core.Scenario{}, err
	}
	if encoded == "" {
		return core.Scenario{}, fmt.Errorf("modtool: package has no recorded scenario")
	}
	b, err := hex.DecodeString(encoded)
	if err != nil {
		return core.Scenario{}, fmt.Errorf("modtool: corrupt scenario metadata: %w", err)
	}
	return core.DecodeScenario(b)
}

// List returns the package names under a directory, via the name
// service.
func (t *Tool) List(dir string) ([]string, error) {
	names, _, err := t.cfg.Runtime.Names().List(dir)
	return names, err
}

func (t *Tool) gosClient(cmdAddr string) *gos.Client {
	return gos.ClientOf(t.cmds.Get(cmdAddr))
}

// SearchResult is one attribute-search hit.
type SearchResult struct {
	// Name is the package's object name.
	Name string
	// Matched is the metadata entry (or "name") that matched.
	Matched string
}

// Search walks the name space under dir and returns the packages whose
// name or metadata contains the query, case-insensitively — the
// "attribute-based search, such that people can look for a software
// package with some specific functionality" the paper plans (§2, §8).
// It binds each package to read its metadata, so cost grows with the
// subtree size; the GDN HTTPD exposes the same walk at /search.
func (t *Tool) Search(dir, query string) ([]SearchResult, error) {
	query = strings.ToLower(query)
	if query == "" {
		return nil, fmt.Errorf("modtool: empty search query")
	}
	var results []SearchResult
	_, err := t.cfg.Runtime.Names().Walk(dir, func(name string, _ ids.OID) error {
		if strings.Contains(strings.ToLower(name), query) {
			results = append(results, SearchResult{Name: name, Matched: "name"})
			return nil
		}
		lr, _, err := t.cfg.Runtime.BindName(name)
		if err != nil {
			return nil // tolerate races with removals
		}
		defer lr.Close()
		meta, err := pkgobj.NewStub(lr).Meta()
		if err != nil {
			return nil
		}
		for key, val := range meta {
			if key == ScenarioMetaKey {
				continue
			}
			if strings.Contains(strings.ToLower(val), query) {
				results = append(results, SearchResult{Name: name, Matched: key})
				return nil
			}
		}
		return nil
	})
	return results, err
}
