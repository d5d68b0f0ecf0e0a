package nfs

import (
	"bytes"
	"context"
	"net"
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/sunrpc"
)

// startStackMax is startStack with a configurable server transfer bound.
func startStackMax(t *testing.T, serverMax int) (*Client, *ffs.FFS) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 1 << 14})
	if err != nil {
		t.Fatalf("ffs.New: %v", err)
	}
	srv := NewServer(StaticExport{FS: backing})
	if serverMax != 0 {
		srv.SetMaxTransfer(serverMax)
	}
	rpcSrv := sunrpc.NewServer()
	srv.RegisterAll(rpcSrv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rpcSrv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(sunrpc.NewClient(conn))
	t.Cleanup(func() {
		c.RPC().Close()
		rpcSrv.Close()
	})
	return c, backing
}

func TestNegotiateGrantAndClamp(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name      string
		serverMax int
		propose   uint32
		want      uint32
	}{
		{"default grant", 0, DefaultMaxTransfer, DefaultMaxTransfer},
		{"server clamps", 64 << 10, DefaultMaxTransfer, 64 << 10},
		{"client proposes less", 0, 32 << 10, 32 << 10},
		{"v2 server pins baseline", MaxData, DefaultMaxTransfer, MaxData},
		{"zero proposal means default", 0, 0, DefaultMaxTransfer},
		{"proposal above protocol limit", 0, 1 << 30, DefaultMaxTransfer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := startStackMax(t, tc.serverMax)
			got, _, err := c.Negotiate(ctx, tc.propose)
			if err != nil {
				t.Fatalf("Negotiate: %v", err)
			}
			if got != tc.want {
				t.Errorf("granted %d, want %d", got, tc.want)
			}
			if c.MaxData() != tc.want {
				t.Errorf("MaxData() = %d after negotiation", c.MaxData())
			}
		})
	}
}

// TestLargeTransferRoundTrip moves a multi-megabyte file through
// negotiated 512 KiB READs/WRITEs and checks byte-exactness — including
// a single Write call far beyond the old 8 KiB bound.
func TestLargeTransferRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _ := startStackMax(t, 0)
	if _, _, err := c.Negotiate(ctx, DefaultMaxTransfer); err != nil {
		t.Fatal(err)
	}
	root := mountRoot(t, c)
	attr, err := c.Create(ctx, root, "big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3<<20+12345)
	for i := range data {
		data[i] = byte(i * 2654435761 >> 16)
	}
	// One oversized logical write: WriteAll chunks it into 512 KiB
	// WRITEs, 7 RPCs instead of the v2 path's 385.
	if err := c.WriteAll(ctx, attr.Handle, data); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	got, err := c.ReadAll(ctx, attr.Handle)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large transfer corrupted")
	}
	// A single READ larger than the file returns exactly the file.
	head, _, err := c.Read(ctx, attr.Handle, 0, DefaultMaxTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, data[:DefaultMaxTransfer]) {
		t.Fatal("single 512 KiB READ corrupted")
	}
}

// TestTransferInterop runs the old/new size matrix both directions: an
// un-negotiated (v2-era 8 KiB) client against a large-transfer server,
// and a large-proposing client against a server pinned to 8 KiB — each
// writing and reading the other's data through a shared backing store.
func TestTransferInterop(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		serverMax int
		negotiate bool
	}{
		{"v2 client, large server", 0, false},
		{"large client, v2 server", MaxData, true},
		{"large client, large server", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, backing := startStackMax(t, tc.serverMax)
			if tc.negotiate {
				if _, _, err := c.Negotiate(ctx, DefaultMaxTransfer); err != nil {
					t.Fatal(err)
				}
			}
			// A second connection to the same server at the other size.
			c2, _ := startStackMax2(t, backing, tc.serverMax)
			if !tc.negotiate {
				if _, _, err := c2.Negotiate(ctx, DefaultMaxTransfer); err != nil {
					t.Fatal(err)
				}
			}
			root := mountRoot(t, c)
			attr, err := c.Create(ctx, root, "x", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 1<<20+777)
			for i := range data {
				data[i] = byte(i * 131)
			}
			if err := c.WriteAll(ctx, attr.Handle, data); err != nil {
				t.Fatal(err)
			}
			got, err := c2.ReadAll(ctx, attr.Handle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cross-size read corrupted")
			}
			// And back the other way.
			for i := range data {
				data[i] ^= 0xFF
			}
			if err := c2.WriteAll(ctx, attr.Handle, data); err != nil {
				t.Fatal(err)
			}
			got, err = c.ReadAll(ctx, attr.Handle)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("reverse cross-size read corrupted")
			}
		})
	}
}

// startStackMax2 serves an existing backing store on a fresh server and
// returns a connected client.
func startStackMax2(t *testing.T, backing *ffs.FFS, serverMax int) (*Client, *ffs.FFS) {
	t.Helper()
	srv := NewServer(StaticExport{FS: backing})
	if serverMax != 0 {
		srv.SetMaxTransfer(serverMax)
	}
	rpcSrv := sunrpc.NewServer()
	srv.RegisterAll(rpcSrv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpcSrv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(sunrpc.NewClient(conn))
	t.Cleanup(func() {
		c.RPC().Close()
		rpcSrv.Close()
	})
	return c, backing
}
