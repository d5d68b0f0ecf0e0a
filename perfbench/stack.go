package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/cfs"
	"discfs/internal/core"
	"discfs/internal/dedup"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// stack is one in-process DisCFS server as `discfsd -write-behind -dedup`
// builds it on the default mem backend: CFS-NE over FFS on a RAM
// MemDevice, the dedup layer over CFS, the write-gathering queue over
// dedup, default decision cache. The benchmark builds the storage layers
// itself (ServerConfig.Backing adopts a ready *dedup.FS instead of
// wrapping again) so it can reach them for integrity checks and, in a
// traced run, slip timing shims between them.
type stack struct {
	srv   *core.Server
	addr  string
	admin *keynote.KeyPair
	ffs   *ffs.FFS
	dedup *dedup.FS
	wire  *countingListener // traced run only

	// Timing shims, non-nil only in a traced run.
	cfsShim, ffsShim *fsShim
	devShim          *devShim

	bufpoolBase int64 // bufpool.Outstanding() before the server started
	closeOnce   sync.Once
	closeErr    error
}

// newStack builds and starts a server. adminSeed names the
// administrator key so every run of one seed talks to the same server
// identity. A non-nil tracer builds the traced stack.
func newStack(adminSeed string, tr *tracer) (*stack, error) {
	traced := tr != nil
	st := &stack{admin: keynote.DeterministicKey(adminSeed), bufpoolBase: bufpool.Outstanding()}
	var dev ffs.BlockDevice = ffs.NewMemDevice(ffs.DefaultBlockSize, ffs.DefaultNumBlocks, ffs.DiskModel{})
	if traced {
		st.devShim = &devShim{next: dev}
		dev = st.devShim
	}
	under, err := ffs.New(ffs.Config{Device: dev})
	if err != nil {
		return nil, fmt.Errorf("ffs: %w", err)
	}
	st.ffs = under
	var cfsBelow vfs.FS = under
	if traced {
		st.ffsShim = &fsShim{next: under, name: "ffs", t: tr}
		cfsBelow = st.ffsShim
	}
	c, err := cfs.New(cfsBelow, "", false)
	if err != nil {
		return nil, fmt.Errorf("cfs: %w", err)
	}
	var dedupBelow vfs.FS = c
	if traced {
		st.cfsShim = &fsShim{next: c, name: "cfs", t: tr}
		dedupBelow = st.cfsShim
	}
	// The same chunking the server picks for its own dedup layer: the
	// average chunk tracks the default negotiated transfer.
	st.dedup, err = dedup.Wrap(dedupBelow, dedup.WithAvgChunkSize(nfs.DefaultMaxTransfer/8))
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	st.srv, err = core.NewServer(core.ServerConfig{
		Backing:     st.dedup,
		ServerKey:   st.admin,
		WriteBehind: true,
		Dedup:       true,
	})
	if err != nil {
		st.dedup.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	st.addr = ln.Addr().String()
	if traced {
		// Only the traced run counts wire bytes, so the measured run
		// serves the kernel listener untouched.
		st.wire = &countingListener{Listener: ln}
		ln = st.wire
	}
	go st.srv.Serve(ln)
	return st, nil
}

// dial attaches a client with default options.
func (st *stack) dial(ctx context.Context, key *keynote.KeyPair) (*core.Client, error) {
	return core.Dial(ctx, st.addr, key)
}

// close stops the server (once); the server closes the dedup layer it
// adopted.
func (st *stack) close() error {
	st.closeOnce.Do(func() { st.closeErr = st.srv.Close() })
	return st.closeErr
}

// storedPerLogical is FFS blocks in use (after a GC sweep) over live
// logical bytes: what the device holds per byte users can read back.
func (st *stack) storedPerLogical(live int64) (float64, error) {
	st.dedup.SweepNow()
	fs, err := st.ffs.StatFS()
	if err != nil {
		return 0, err
	}
	used := int64(fs.TotalBlocks-fs.FreeBlocks) * int64(fs.BlockSize)
	return ratio(float64(used), float64(live)), nil
}

// integrity is the post-run check of one workload: every client is
// closed, so the stores must be consistent and no audit record or pooled
// buffer may be lost.
type integrity struct {
	FFSErrors        int
	DedupRefMismatch int
	DedupMissing     int
	AuditDropped     uint64
	// BufpoolDelta is bufpool.Outstanding() after the server stopped
	// minus before it started. CacheHandoffs is how many of those buffers
	// the program hands away by design: nfs.Client.Read returns the
	// pooled reply record to its caller, the client data cache installs
	// it as a block, and the GC reclaims it — one per successful READ.
	// Every other pooled buffer must come back.
	BufpoolDelta  int64
	CacheHandoffs int64
}

func (i integrity) ok() bool {
	return i.FFSErrors == 0 && i.DedupRefMismatch == 0 && i.DedupMissing == 0 &&
		i.AuditDropped == 0 && i.BufpoolDelta == i.CacheHandoffs
}

func (i integrity) String() string {
	return fmt.Sprintf("ffs.Check errors=%d; dedup.Verify ref_mismatch=%d missing_chunk=%d; audit.dropped=%d; bufpool.outstanding_delta=%d (READ replies handed to client caches %d, unreturned %d)",
		i.FFSErrors, i.DedupRefMismatch, i.DedupMissing, i.AuditDropped, i.BufpoolDelta, i.CacheHandoffs, i.BufpoolDelta-i.CacheHandoffs)
}

// check runs the integrity gates and stops the server. Call it after
// every client has closed. The stores are checked while the server still
// holds them; the buffer-pool gate runs once the server is down, since
// its connections give their pooled buffers back as they wind down.
func (st *stack) check() (integrity, error) {
	var res integrity
	res.AuditDropped = st.srv.Stats().AuditDropped
	vr, err := st.dedup.Verify()
	if err != nil {
		st.close()
		return res, fmt.Errorf("dedup.Verify: %w", err)
	}
	res.DedupRefMismatch, res.DedupMissing = vr.RefMismatch, vr.MissingChunk
	res.FFSErrors = len(st.ffs.Check())
	m := scrapeText(st.srv.Metrics())
	res.CacheHandoffs = int64(m[`discfs_nfs_latency_seconds_count{proc="read"}`] - m[`discfs_nfs_errors_total{proc="read"}`])
	if err := st.close(); err != nil {
		return res, fmt.Errorf("server close: %w", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		res.BufpoolDelta = bufpool.Outstanding() - st.bufpoolBase
		if res.BufpoolDelta == res.CacheHandoffs || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return res, nil
}

// countingListener counts the bytes crossing every accepted connection:
// the wire cost of the secure channel and RPC framing.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

func (l *countingListener) bytes() int64 { return l.read.Load() + l.written.Load() }
