package discfs_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"discfs"
)

// startTransferServer brings up a server with the given transfer bound
// (0 = default 512 KiB) and an RWX-credentialed user key.
func startTransferServer(t *testing.T, serverMax int, wb bool) (string, *discfs.KeyPair) {
	t.Helper()
	adminKey := discfs.DeterministicKey("xfer-admin")
	userKey := discfs.DeterministicKey("xfer-user")
	store, err := discfs.NewMemStore()
	if err != nil {
		t.Fatal(err)
	}
	opts := []discfs.ServerOption{discfs.WithBacking(store)}
	if serverMax != 0 {
		opts = append(opts, discfs.WithServerMaxTransfer(serverMax))
	}
	if wb {
		opts = append(opts, discfs.WithServerWriteBehind())
	}
	srv, err := discfs.NewServer(adminKey, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.IssueCredential(userKey.Principal, store.Root().Ino, "RWX", "xfer user"); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, userKey
}

// TestTransferSizeInterop is the end-to-end old/new matrix: every
// combination of a v2-pinned (8 KiB) and a large-transfer (512 KiB)
// peer must interoperate byte-exactly through the full stack — secure
// channel, negotiation, data cache, write-behind server.
func TestTransferSizeInterop(t *testing.T) {
	ctx := context.Background()
	data := make([]byte, 2<<20+4321)
	for i := range data {
		data[i] = byte(i*37 + i>>9)
	}
	for _, tc := range []struct {
		name                 string
		serverMax            int
		writerMax, readerMax int
	}{
		{"large writer, v2 reader", 0, 0, 8192},
		{"v2 writer, large reader", 0, 8192, 0},
		{"v2 server clamps both", 8192, 0, 0},
		{"large both", 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, userKey := startTransferServer(t, tc.serverMax, true)

			wopts := []discfs.ClientOption{}
			if tc.writerMax != 0 {
				wopts = append(wopts, discfs.WithMaxTransfer(tc.writerMax))
			}
			w, err := discfs.Dial(ctx, addr, userKey, wopts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			f, err := w.Open(ctx, "/big.dat", os.O_CREATE|os.O_WRONLY)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			ropts := []discfs.ClientOption{}
			if tc.readerMax != 0 {
				ropts = append(ropts, discfs.WithMaxTransfer(tc.readerMax))
			}
			r, err := discfs.Dial(ctx, addr, userKey, ropts...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.ReadFile(ctx, "/big.dat")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cross-size transfer corrupted")
			}

			if tc.serverMax == 8192 {
				if w.MaxTransfer() != 8192 || r.MaxTransfer() != 8192 {
					t.Errorf("v2 server granted %d/%d, want 8192", w.MaxTransfer(), r.MaxTransfer())
				}
			}
		})
	}
}

// TestNegotiatedTransferDefault: a default dial against a default
// server lands on DefaultMaxTransfer.
func TestNegotiatedTransferDefault(t *testing.T) {
	ctx := context.Background()
	addr, userKey := startTransferServer(t, 0, false)
	c, err := discfs.Dial(ctx, addr, userKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.MaxTransfer() != discfs.DefaultMaxTransfer {
		t.Errorf("negotiated %d, want %d", c.MaxTransfer(), discfs.DefaultMaxTransfer)
	}
}
