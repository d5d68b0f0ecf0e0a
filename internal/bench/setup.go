package bench

import (
	"context"
	"fmt"
	"net"

	"discfs/internal/cfs"
	"discfs/internal/core"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
)

// Setup is one benchmarkable filesystem configuration.
type Setup struct {
	// Name is the paper's label: "FFS", "CFS-NE" or "DisCFS".
	Name string
	// FS is the filesystem under test, local or remote.
	FS vfs.FS
	// Populate is direct, uncredentialed access to the backing store for
	// pre-loading workloads, the way the paper's kernel tree was already
	// on the server's disk before measurement. Measuring through FS
	// after populating through Populate keeps the KeyNote session at the
	// paper's size (one user credential) instead of one credential per
	// created file.
	Populate vfs.FS
	// Stats reports DisCFS policy statistics (nil for the baselines).
	Stats func() core.Stats
	// Close releases servers and connections.
	Close func()
	// addr is the server's TCP address (CFS-NE only; for extra dials).
	addr string
}

// ffsStore builds the common backing store.
func ffsStore() (*ffs.FFS, error) {
	return ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 1 << 17})
}

// SetupFFS is the paper's local-filesystem baseline: direct calls into
// the FFS substrate, no RPC, no policy.
func SetupFFS() (*Setup, error) {
	fs, err := ffsStore()
	if err != nil {
		return nil, err
	}
	return &Setup{Name: "FFS", FS: fs, Populate: fs, Close: func() {}}, nil
}

// SetupCFSNE is the paper's base case: the CFS layer with encryption
// off, exported by the user-level NFS server over TCP, accessed through
// the NFS client — everything DisCFS does except credentials and the
// secure channel.
func SetupCFSNE() (*Setup, error) {
	backing, err := ffsStore()
	if err != nil {
		return nil, err
	}
	ne, err := cfs.New(backing, "", false)
	if err != nil {
		return nil, err
	}
	rpcSrv := sunrpc.NewServer()
	nfs.NewServer(nfs.StaticExport{FS: ne}).RegisterAll(rpcSrv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go rpcSrv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		rpcSrv.Close()
		return nil, err
	}
	client := nfs.NewClient(sunrpc.NewClient(conn))
	root, err := client.Mount(context.Background(), "/export")
	if err != nil {
		rpcSrv.Close()
		return nil, err
	}
	// Negotiate large transfers, as a modern kernel client would.
	if _, _, err := client.Negotiate(context.Background(), 0); err != nil {
		rpcSrv.Close()
		return nil, err
	}
	return &Setup{
		Name:     "CFS-NE",
		FS:       NewRemoteFS(client, root),
		Populate: ne,
		Close: func() {
			client.RPC().Close()
			rpcSrv.Close()
		},
		addr: ln.Addr().String(),
	}, nil
}

// SetupDisCFS is the full system: CFS-NE plus KeyNote credential checks,
// served over the authenticated secure channel (the paper's IPsec), with
// the policy decision cache at the paper's size of 128 entries and the
// client-side data cache (readahead + write-behind) enabled — the
// system's default configuration.
func SetupDisCFS() (*Setup, error) {
	return setupDisCFS("DisCFS")
}

// SetupDisCFSNoCache is SetupDisCFS with the client data cache disabled
// (WithNoDataCache): every read and write is one synchronous RPC. The
// Figure 7-11 benchmarks run both so the cache's win is reported.
func SetupDisCFSNoCache() (*Setup, error) {
	return setupDisCFS("DisCFS-nocache", core.WithNoDataCache())
}

func setupDisCFS(name string, opts ...core.ClientOption) (*Setup, error) {
	backing, err := ffsStore()
	if err != nil {
		return nil, err
	}
	ne, err := cfs.New(backing, "", false)
	if err != nil {
		return nil, err
	}
	adminKey := keynote.DeterministicKey("bench-admin")
	userKey := keynote.DeterministicKey("bench-user")
	srv, err := core.NewServer(core.ServerConfig{
		Backing:   ne,
		ServerKey: adminKey,
		CacheSize: 128,
	})
	if err != nil {
		return nil, err
	}
	// The benchmark user holds an RWX credential on the tree, as the
	// measured user in the paper's runs did.
	if _, err := srv.IssueCredential(userKey.Principal, ne.Root().Ino, "RWX", "benchmark user"); err != nil {
		srv.Close()
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		srv.Close()
		return nil, err
	}
	client, err := core.Dial(context.Background(), addr, userKey, opts...)
	if err != nil {
		srv.Close()
		return nil, err
	}
	fsys := NewClientFS(client)
	return &Setup{
		Name:     name,
		FS:       fsys,
		Populate: ne,
		Stats:    srv.Stats,
		Close: func() {
			fsys.Close()
			client.Close()
			srv.Close()
		},
	}, nil
}

// AllSetups builds the three configurations of the paper's evaluation.
func AllSetups() ([]*Setup, error) {
	var out []*Setup
	for _, mk := range []func() (*Setup, error){SetupFFS, SetupCFSNE, SetupDisCFS} {
		s, err := mk()
		if err != nil {
			for _, p := range out {
				p.Close()
			}
			return nil, fmt.Errorf("bench: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// DialCFSNECached opens a second connection to the CFS-NE setup's server
// and wraps it in the attribute-caching client, for the client-cache
// ablation. The returned close function tears down only this connection.
func DialCFSNECached(s *Setup) (*nfs.CachingClient, vfs.Handle, func(), error) {
	if s.addr == "" {
		return nil, vfs.Handle{}, nil, fmt.Errorf("bench: setup has no server address")
	}
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, vfs.Handle{}, nil, err
	}
	client := nfs.NewClient(sunrpc.NewClient(conn))
	root, err := client.Mount(context.Background(), "/export")
	if err != nil {
		client.RPC().Close()
		return nil, vfs.Handle{}, nil, err
	}
	cc := nfs.NewCachingClient(client, 0)
	return cc, root, func() { client.RPC().Close() }, nil
}
