package core

// The client-side data cache: a per-file block cache with sequential
// readahead and write-behind, the role the kernel page cache plays for
// real NFS clients. Without it every 8 KiB of file I/O costs one
// synchronous RPC round-trip — the dominant term in the paper's Figures
// 7-11 — so the cache is where the client wins throughput without
// touching the trust model: credentials are still checked on every RPC
// the server sees.
//
// Consistency is close-to-open, exactly as NFS clients provide it:
//
//   - Open revalidates the file against the server (a fresh GETATTR
//     through the attribute cache); a changed mtime or size drops every
//     clean cached block.
//   - Close (and Sync) drain the write-behind queue and return the first
//     deferred write error — the error barrier of write(2)-then-close on
//     a real NFS mount.
//
// Between open and close, reads may serve cached data that a concurrent
// remote writer has already overwritten, and writes may sit dirty on the
// client for a flush delay; a reader that needs another client's writes
// must open after the writer's close.

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// Process-global data-cache counters (like the buffer pool's): block
// lookups served from cache vs. fetched over RPC, summed across every
// client in the process. The server's metrics registry bridges them in,
// so a co-located client's hit rate shows up on /metrics.
var (
	dcHits   atomic.Uint64
	dcMisses atomic.Uint64
)

// DataCacheStats reports the process-wide data-cache block lookup
// counters (hits served locally, misses fetched over RPC).
func DataCacheStats() (hits, misses uint64) {
	return dcHits.Load(), dcMisses.Load()
}

const (
	// readaheadBytes is the byte budget prefetched ahead of a detected
	// sequential read stream (8 blocks at the 8 KiB baseline granule).
	readaheadBytes = 64 << 10
	// writeBehindBytes is the write-behind window: the dirty bytes
	// buffered client-side before writers are throttled (4 MiB — a
	// sliver of what kernel page caches allow via vm.dirty_ratio, but
	// enough to absorb bursts whole).
	writeBehindBytes = 4 << 20
	// maxFlushWorkers bounds the goroutines flushing one file's dirty
	// blocks concurrently (concurrent WRITE RPCs pipeline through the
	// connection and the server's per-record dispatch).
	maxFlushWorkers = 8
	// maxCachedBytes bounds the per-file cache footprint; clean blocks
	// beyond it are evicted, dirty blocks never are.
	maxCachedBytes = 16 << 20
	// maxUnstableBytes bounds the flushed-but-uncommitted data pinned
	// in the cache: past it the writer issues an intermediate COMMIT,
	// the way kernel NFS clients bound dirty-plus-unstable pages, so a
	// streaming write cannot pin the whole file in memory until Sync.
	maxUnstableBytes = 8 << 20
	// maxHandleCaches bounds how many files keep their cache after the
	// last close (retained so a re-open can revalidate instead of
	// refetching).
	maxHandleCaches = 64
	// partialFlushDelay is how long a partially filled dirty block may
	// wait for adjacent writes to coalesce before it is flushed anyway.
	partialFlushDelay = 50 * time.Millisecond
)

// dataCacheConfig holds the client options; the zero value means
// "data cache enabled, default transfer proposal, single server".
type dataCacheConfig struct {
	disabled bool
	// maxTransfer is the transfer size to propose at attach; 0 means
	// nfs.DefaultMaxTransfer. The server's grant becomes the cache
	// granule.
	maxTransfer uint32
	// Federation (rides here because ClientOption closes over this
	// struct): extra shard servers, static path grafts, and the
	// consistent-hash-sharded subtree. All empty for a classic
	// single-server client.
	fedServers []string
	fedGrafts  map[string]int
	fedSubtree string
}

// scaleBlocks converts a byte budget into whole granules within
// [min, max].
func scaleBlocks(bytes, bs int64, min, max int) int {
	n := int(bytes / bs)
	if n < min {
		return min
	}
	if n > max {
		return max
	}
	return n
}

// cblock is one cached block. data holds the valid bytes from the block
// start; a block shorter than the cache granule is valid only to len(data),
// and bytes beyond any block's data read as zeros (holes).
type cblock struct {
	data     []byte
	dirty    bool
	dirtyOff int // dirty extent within data, [dirtyOff, dirtyEnd)
	dirtyEnd int
	dirtyGen uint64 // bumped by every write; a flush only cleans its own generation
	flushing bool
	// cow marks data as lent to an in-flight flush RPC: a writer that
	// wants to mutate the block first detaches onto a private copy, so
	// the flush reads a stable buffer without snapshotting every flush
	// (sequential streams never touch a flushing block, making the
	// steady-state flush zero-copy).
	cow bool
	// unstable marks a block flushed to the server but not yet covered
	// by a COMMIT barrier: against a write-behind server the WRITE
	// reply promises nothing durable, so the block is pinned in the
	// cache (never evicted) until a COMMIT with an unchanged boot
	// verifier confirms it — or replayed if the verifier moved (the
	// NFSv3 client write path).
	unstable bool
	// flushedSeq is the flush-sequence number of the last completed
	// flush of this block. A COMMIT only confirms blocks whose flush
	// reply preceded it (flushedSeq at most the sequence at COMMIT
	// issue); blocks flushed while the COMMIT was on the wire stay
	// unstable for the next barrier.
	flushedSeq uint64
}

// handleCache is the cache of one remote file, shared by every File a
// Client has open on the handle and retained across closes so a re-open
// can revalidate cheaply.
type handleCache struct {
	c  *Client
	sh *shard // the shard owning h; all cache RPCs go there
	h  vfs.Handle

	mu   sync.Mutex
	cond *sync.Cond // wakes flush workers, drain waiters and throttled writers

	// bs is the cache granule: the connection's negotiated transfer
	// size, so one full block moves as exactly one READ/WRITE RPC.
	bs int64
	// readahead, writeBehind, maxCached and maxUnstable are
	// readaheadBytes, writeBehindBytes, maxCachedBytes and
	// maxUnstableBytes in granules, so every full-block readahead fetch
	// and write-behind flush is exactly one maximal RPC.
	readahead   int
	writeBehind int
	maxCached   int
	maxUnstable int

	blocks   map[int64]*cblock
	fetching map[int64]*fetchState // in-flight block reads, for dedup
	inval    uint64                // invalidation epoch: stale in-flight fetches aren't cached

	// size is the logical file size: the server's size plus any
	// unflushed extension by local writes. Reads EOF against it.
	size int64
	// srvSize is the last size observed from the server, deciding which
	// blocks exist server-side (fetch vs hole).
	srvSize uint64
	// valMtime/valSize are the close-to-open validator: the server state
	// the cached blocks correspond to. Updated by revalidation and by
	// our own flush replies (so self-inflicted mtime changes do not
	// invalidate the cache on the next open).
	valMtime time.Time
	valSize  uint64
	haveVal  bool

	nDirty    int
	nUnstable int // flushed-but-uncommitted blocks (see cblock.unstable)
	// commitVer is the server boot verifier the unstable blocks were
	// written under: the shard link's FSINFO value at creation, then
	// the value seen at each COMMIT.
	commitVer  uint64
	committing bool  // a writer-triggered intermediate COMMIT is in flight
	lastWrite  int64 // block index of the most recent write; held back briefly to coalesce
	draining   int   // >0: a Sync/Close is waiting, every dirty block is flush-eligible
	timerArmed bool
	flushSeq   uint64 // bumped on every flush completion; orders GETATTRs vs flushes
	werr       error  // first deferred write error since the last barrier

	refs    int  // open Files
	stopped bool // set when refs drop to zero or the client closes; workers exit once clean
	workers int

	// flushCtx bounds flush RPCs: the context of the most recent writer
	// (canceling it aborts in-flight flushes; the error surfaces at the
	// next barrier).
	flushCtx context.Context

	raNext int64 // next expected sequential read offset
}

// ---- Client-side registry ----

// handleCacheFor returns the (possibly retained) cache for h, creating
// it under the client's configuration.
func (c *Client) handleCacheFor(h vfs.Handle) *handleCache {
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	if hc, ok := c.dcaches[h]; ok {
		return hc
	}
	if len(c.dcaches) >= maxHandleCaches {
		for k, hc := range c.dcaches {
			hc.mu.Lock()
			idle := hc.refs == 0 && hc.nDirty == 0
			hc.mu.Unlock()
			if idle {
				delete(c.dcaches, k)
				if len(c.dcaches) < maxHandleCaches {
					break
				}
			}
		}
	}
	sh := c.shardOf(h)
	bs := int64(sh.xfer)
	if bs == 0 {
		bs = nfs.MaxData
	}
	hc := &handleCache{
		c:           c,
		sh:          sh,
		h:           h,
		bs:          bs,
		readahead:   scaleBlocks(readaheadBytes, bs, 2, readaheadBytes/nfs.MaxData),
		writeBehind: scaleBlocks(writeBehindBytes, bs, 4, writeBehindBytes/nfs.MaxData),
		maxCached:   scaleBlocks(maxCachedBytes, bs, 8, maxCachedBytes/nfs.MaxData),
		maxUnstable: scaleBlocks(maxUnstableBytes, bs, 4, maxUnstableBytes/nfs.MaxData),
		commitVer:   sh.link.Load().verf,
		blocks:      make(map[int64]*cblock),
		fetching:    make(map[int64]*fetchState),
		lastWrite:   -1,
		flushCtx:    context.Background(),
	}
	hc.cond = sync.NewCond(&hc.mu)
	c.dcaches[h] = hc
	return hc
}

// shutdownCaches releases every flush worker; called from Client.Close.
// Dirty blocks drain against the closed connection (each flush fails
// fast and is dropped), so workers exit promptly.
func (c *Client) shutdownCaches() {
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	for _, hc := range c.dcaches {
		hc.mu.Lock()
		hc.stopped = true
		hc.cond.Broadcast()
		hc.mu.Unlock()
	}
}

// ---- lifecycle ----

// addRef records an open File on the cache.
func (hc *handleCache) addRef() {
	hc.mu.Lock()
	hc.refs++
	hc.stopped = false
	hc.mu.Unlock()
}

// release drops a File's reference; the last release lets idle flush
// workers exit (the blocks stay cached for the next open).
func (hc *handleCache) release() {
	hc.mu.Lock()
	hc.refs--
	if hc.refs <= 0 {
		hc.stopped = true
		hc.cond.Broadcast()
	}
	hc.mu.Unlock()
}

// flushSeqNow snapshots the flush-completion counter; pass it to
// revalidate to detect flushes racing the revalidation GETATTR.
func (hc *handleCache) flushSeqNow() uint64 {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.flushSeq
}

// revalidate applies the close-to-open check against fresh server
// attributes: if the file changed under us (mtime or size moved and it
// wasn't our own flush), every clean block is dropped. Dirty blocks are
// kept — they are this client's unflushed writes. seq is the
// flushSeqNow snapshot taken before the GETATTR was issued.
func (hc *handleCache) revalidate(a vfs.Attr, seq uint64) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.haveVal && (!a.Mtime.Equal(hc.valMtime) || a.Size != hc.valSize) {
		for idx, b := range hc.blocks {
			// Unstable blocks are this client's own flushed-but-
			// uncommitted writes: they must survive for replay.
			if !b.dirty && !b.flushing && !b.unstable {
				delete(hc.blocks, idx)
			}
		}
		hc.inval++ // fetches started before this point must not install
	}
	hc.haveVal = true
	hc.valMtime, hc.valSize = a.Mtime, a.Size
	// Adopt the server's size only when the cache was quiescent across
	// the whole GETATTR: with flushes in flight — or completed while
	// the GETATTR was on the wire (seq moved) — the reply may report a
	// size the server has already moved past, and regressing srvSize
	// would make reads treat flushed data as holes. While busy, sizes
	// only ratchet up.
	busy := hc.nDirty > 0 || len(hc.fetching) > 0 || hc.flushSeq != seq
	if !busy {
		for _, b := range hc.blocks {
			if b.flushing {
				busy = true
				break
			}
		}
	}
	if busy {
		if a.Size > hc.srvSize {
			hc.srvSize = a.Size
		}
		if int64(a.Size) > hc.size {
			hc.size = int64(a.Size)
		}
		return
	}
	hc.srvSize = a.Size
	hc.size = int64(a.Size)
	for idx, b := range hc.blocks {
		if b.dirty {
			if end := idx*hc.bs + int64(len(b.data)); end > hc.size {
				hc.size = end
			}
		}
	}
}

// logicalSize returns the file size as this client sees it (server size
// plus unflushed local extension).
func (hc *handleCache) logicalSize() int64 {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.size
}

// ---- read path ----

// readAt copies file content at off into p, serving cached blocks and
// fetching missing ones from the server. It returns io.EOF at (and
// beyond) end of file, and triggers asynchronous readahead when the
// access pattern is sequential.
func (hc *handleCache) readAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: read at %d: %w", off, vfs.ErrInval)
	}
	if len(p) == 0 {
		return 0, nil
	}
	hc.mu.Lock()
	if off >= hc.size {
		hc.raNext = off // a repeated tail read still counts as sequential
		hc.mu.Unlock()
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > hc.size-off {
		n = int(hc.size - off)
	}
	first := off / hc.bs
	last := (off + int64(n) - 1) / hc.bs
	// Holes (bytes no block covers) read as zeros.
	for i := range p[:n] {
		p[i] = 0
	}
	// Obtain-and-copy one block at a time: blockBytesLocked releases
	// the lock around its RPC, and a concurrent open's revalidation may
	// drop already-obtained blocks in that window — so each block's
	// bytes are taken in the same critical section that obtained them.
	for idx := first; idx <= last; idx++ {
		bdata, err := hc.blockBytesLocked(ctx, idx)
		if err != nil {
			hc.mu.Unlock()
			return 0, err
		}
		if bdata == nil {
			continue
		}
		bs := idx * hc.bs
		lo, hi := off, off+int64(n)
		if bs > lo {
			lo = bs
		}
		if e := bs + int64(len(bdata)); e < hi {
			hi = e
		}
		if hi > lo {
			copy(p[lo-off:hi-off], bdata[lo-bs:hi-bs])
		}
	}
	sequential := off == hc.raNext || off == 0
	hc.raNext = off + int64(n)
	if sequential {
		hc.readaheadLocked(ctx, last+1)
	}
	hc.mu.Unlock()
	return n, nil
}

// fetchState carries one in-flight block READ so concurrent callers
// share the RPC: data/err are valid once done is closed. The data is a
// server snapshot valid for the reads that raced it even when an
// invalidation (open revalidation, truncate) forbids caching it.
type fetchState struct {
	done chan struct{}
	data []byte
	err  error
}

// blockBytesLocked returns the bytes backing block idx: the cached
// block if present, else a server fetch (shared with concurrent
// callers). nil means the block is a hole. The lock is released around
// the RPC and held again on return, so the caller must consume the
// bytes before unlocking.
func (hc *handleCache) blockBytesLocked(ctx context.Context, idx int64) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if b := hc.blocks[idx]; b != nil {
			if attempt == 0 {
				dcHits.Add(1)
			}
			return b.data, nil
		}
		if uint64(idx*hc.bs) >= hc.srvSize {
			if attempt == 0 {
				dcHits.Add(1) // in-bounds hole: answered without an RPC
			}
			return nil, nil
		}
		if fs, ok := hc.fetching[idx]; ok {
			hc.mu.Unlock()
			select {
			case <-fs.done:
				hc.mu.Lock()
			case <-ctx.Done():
				hc.mu.Lock()
				return nil, ctx.Err()
			}
			if fs.err != nil {
				lastErr = fs.err // the racer failed; retry ourselves
				continue
			}
			// Prefer the live block (a local write may have superseded
			// the fetch); otherwise the racer's snapshot serves.
			if b := hc.blocks[idx]; b != nil {
				return b.data, nil
			}
			return fs.data, nil
		}
		fs := &fetchState{done: make(chan struct{})}
		hc.fetching[idx] = fs
		dcMisses.Add(1)
		epoch := hc.inval
		hc.mu.Unlock()
		hc.fetch(ctx, idx, fs, epoch)
		hc.mu.Lock()
		if fs.err != nil {
			return nil, fs.err
		}
		if b := hc.blocks[idx]; b != nil {
			return b.data, nil
		}
		return fs.data, nil
	}
	return nil, lastErr
}

// fetch reads one block from the server into fs and, when permitted,
// installs it in the cache. It must be called without the lock, by the
// goroutine that registered fs in hc.fetching; epoch is the
// invalidation epoch at registration time — a reply from before an
// invalidation is served to waiters but not cached.
func (hc *handleCache) fetch(ctx context.Context, idx int64, fs *fetchState, epoch uint64) {
	start := idx * hc.bs
	var data []byte
	var err error
	if start > math.MaxUint32 {
		err = fmt.Errorf("core: offset %d beyond NFSv2 range: %w", start, vfs.ErrFBig)
	} else {
		// The reply's attributes are deliberately NOT folded into
		// srvSize: a READ that raced our in-flight flushes reports a
		// size the server has moved past, and shrinking srvSize would
		// turn flushed data into holes. Remote truncation is adopted at
		// the next quiescent open (close-to-open).
		data, _, err = hc.sh.nfsc(ctx).Read(ctx, hc.h, uint32(start), uint32(hc.bs))
	}
	hc.mu.Lock()
	delete(hc.fetching, idx)
	if err != nil {
		fs.err = hc.c.wireError(err)
	} else {
		fs.data = data
		// A block written locally while the fetch was in flight is
		// newer truth, and a reply predating an invalidation is stale;
		// install only over a hole in the current epoch.
		if hc.blocks[idx] == nil && len(data) > 0 && hc.inval == epoch {
			hc.installLocked(idx, &cblock{data: data})
		}
	}
	close(fs.done)
	hc.mu.Unlock()
}

// readaheadLocked starts asynchronous fetches for up to hc.readahead
// blocks from idx, skipping blocks already cached, in flight, or beyond
// the server file.
func (hc *handleCache) readaheadLocked(ctx context.Context, idx int64) {
	for i := int64(0); i < int64(hc.readahead); i++ {
		k := idx + i
		if uint64(k*hc.bs) >= hc.srvSize {
			return
		}
		if hc.blocks[k] != nil || hc.fetching[k] != nil {
			continue
		}
		fs := &fetchState{done: make(chan struct{})}
		hc.fetching[k] = fs
		// Readahead is advisory: errors are dropped, the demand read
		// will refetch and report.
		go hc.fetch(ctx, k, fs, hc.inval)
	}
}

// installLocked stores a block, evicting arbitrary clean blocks beyond
// the footprint cap.
func (hc *handleCache) installLocked(idx int64, b *cblock) {
	hc.blocks[idx] = b
	if len(hc.blocks) <= hc.maxCached {
		return
	}
	for k, v := range hc.blocks {
		if k != idx && !v.dirty && !v.flushing && !v.unstable {
			delete(hc.blocks, k)
			if len(hc.blocks) <= hc.maxCached {
				return
			}
		}
	}
}

// ---- write path ----

// writeAt buffers p at off, marking blocks dirty for the background
// flush workers, and throttles while the write-behind window is full.
// The data is durable on the server only after a successful Sync or
// Close (the error barrier).
func (hc *handleCache) writeAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: write at %d: %w", off, vfs.ErrInval)
	}
	if off+int64(len(p)) > math.MaxUint32 {
		return 0, fmt.Errorf("core: offset %d beyond NFSv2 range: %w", off+int64(len(p)), vfs.ErrFBig)
	}
	total := 0
	for total < len(p) {
		at := off + int64(total)
		idx := at / hc.bs
		bo := int(at - idx*hc.bs)
		n := int(hc.bs) - bo
		if n > len(p)-total {
			n = len(p) - total
		}
		if err := hc.writeBlock(ctx, idx, bo, p[total:total+n]); err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// writeBlock applies one intra-block write.
func (hc *handleCache) writeBlock(ctx context.Context, idx int64, bo int, p []byte) error {
	start := idx * hc.bs
	hc.mu.Lock()
	b := hc.blocks[idx]
	if b == nil {
		// Read-modify-write: when the server holds bytes of this block
		// the write does not cover, fetch them first so the flushed
		// extent carries correct base data.
		srvEnd := hc.srvSize
		if e := uint64(start) + uint64(hc.bs); srvEnd > e {
			srvEnd = e
		}
		partial := bo > 0 || uint64(start)+uint64(bo+len(p)) < srvEnd
		if partial && uint64(start) < hc.srvSize {
			base, err := hc.blockBytesLocked(ctx, idx)
			if err != nil {
				hc.mu.Unlock()
				return err
			}
			b = hc.blocks[idx]
			if b == nil && len(base) > 0 {
				// The fetch could not be cached (an invalidation raced
				// it), but it is still the read-modify-write base for
				// this write; install a private copy to mutate.
				b = &cblock{data: append([]byte(nil), base...)}
				hc.installLocked(idx, b)
			}
		}
	}
	if b == nil {
		b = &cblock{}
		hc.installLocked(idx, b)
	}
	end := bo + len(p)
	if b.cow {
		// The buffer is lent to an in-flight flush RPC: mutate a
		// private copy and leave the lent array to the flush.
		b.data = append([]byte(nil), b.data...)
		b.cow = false
	}
	if len(b.data) < end {
		b.data = append(b.data, make([]byte, end-len(b.data))...)
	}
	copy(b.data[bo:end], p)
	if !b.dirty {
		b.dirty = true
		b.dirtyOff, b.dirtyEnd = bo, end
		hc.nDirty++
	} else {
		if bo < b.dirtyOff {
			b.dirtyOff = bo
		}
		if end > b.dirtyEnd {
			b.dirtyEnd = end
		}
	}
	b.dirtyGen++
	hc.lastWrite = idx
	if e := start + int64(len(b.data)); e > hc.size {
		hc.size = e
	}
	hc.flushCtx = ctx
	hc.ensureWorkersLocked()
	hc.cond.Broadcast()
	// Too many flushed-but-uncommitted blocks pinned: run an
	// intermediate COMMIT (single-flight) so a streaming write's
	// footprint stays bounded instead of pinning the whole file until
	// Sync. Confirmed blocks become clean and evictable.
	if hc.nUnstable >= hc.maxUnstable && !hc.committing && hc.werr == nil {
		hc.committing = true
		hc.commitBarrierLocked(ctx)
		hc.committing = false
	}
	// Write-behind window: wait for the flushers to catch up. A flush
	// error drains its block, so this cannot wedge; the error itself is
	// reported at the next barrier.
	for hc.nDirty > hc.writeBehind && hc.werr == nil {
		hc.cond.Wait()
	}
	hc.mu.Unlock()
	return nil
}

// ---- flushing ----

// ensureWorkersLocked keeps the flush worker pool running while there
// is (or may be) dirty data.
func (hc *handleCache) ensureWorkersLocked() {
	for hc.workers < min(hc.writeBehind, maxFlushWorkers) {
		hc.workers++
		go hc.flushWorker()
	}
}

// flushEligibleLocked reports whether b may be flushed now. Full blocks
// always may; a partially filled block is held back briefly so adjacent
// small writes coalesce into one full WRITE — unless a barrier is
// draining, the window is over pressure, or the writer has moved on.
func (hc *handleCache) flushEligibleLocked(idx int64, b *cblock) bool {
	if !b.dirty || b.flushing {
		return false
	}
	if b.dirtyEnd-b.dirtyOff >= int(hc.bs) {
		return true
	}
	return hc.draining > 0 || hc.nDirty > hc.writeBehind || idx != hc.lastWrite
}

// pickDirtyLocked returns the lowest-offset flush-eligible block.
func (hc *handleCache) pickDirtyLocked() (int64, *cblock) {
	var best *cblock
	var bestIdx int64
	for idx, b := range hc.blocks {
		if hc.flushEligibleLocked(idx, b) && (best == nil || idx < bestIdx) {
			best, bestIdx = b, idx
		}
	}
	return bestIdx, best
}

// flushWorker drains dirty blocks until the cache is stopped and clean.
// Workers share the shard's one connection; their WRITE RPCs overlap on
// it, since sunrpc runs concurrent calls on one channel.
func (hc *handleCache) flushWorker() {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	for {
		idx, b := hc.pickDirtyLocked()
		if b == nil {
			if hc.stopped && hc.nDirty == 0 {
				hc.workers--
				return
			}
			// Ineligible partial blocks age out: arm a timer that lifts
			// the coalescing hold so a lone small write still reaches
			// the server without a barrier.
			if hc.nDirty > 0 && !hc.timerArmed {
				hc.timerArmed = true
				time.AfterFunc(partialFlushDelay, func() {
					hc.mu.Lock()
					hc.timerArmed = false
					hc.lastWrite = -1
					hc.cond.Broadcast()
					hc.mu.Unlock()
				})
			}
			hc.cond.Wait()
			continue
		}
		b.flushing = true
		b.cow = true // writers detach onto a private copy while we send
		gen := b.dirtyGen
		fOff, fEnd := b.dirtyOff, b.dirtyEnd
		snap := b.data[fOff:fEnd] // stable under cow: no snapshot copy
		start := idx*hc.bs + int64(fOff)
		ctx := hc.flushCtx
		hc.mu.Unlock()

		attr, err := hc.sh.nfsc(ctx).Write(ctx, hc.h, uint32(start), snap)

		hc.mu.Lock()
		b.flushing = false
		b.cow = false
		hc.flushSeq++
		if err != nil {
			if hc.werr == nil {
				hc.werr = fmt.Errorf("core: deferred write at offset %d: %w", start, hc.c.wireError(err))
			}
			// The write is lost (and reported at the barrier); drop the
			// block so reads refetch server truth.
			if b.unstable {
				b.unstable = false
				hc.nUnstable--
			}
			delete(hc.blocks, idx)
			hc.nDirty--
		} else {
			// Our own flush moved the server mtime; fold the reply into
			// the validator so the next open does not self-invalidate.
			// Both fields only ratchet: concurrent flush replies land
			// out of order, and a regressed srvSize would let a later
			// write skip its read-modify-write fetch, while a regressed
			// validator would spuriously invalidate the cache.
			if attr.Mtime.After(hc.valMtime) {
				hc.valMtime = attr.Mtime
			}
			if attr.Size > hc.valSize {
				hc.valSize = attr.Size
			}
			if attr.Size > hc.srvSize {
				hc.srvSize = attr.Size
			}
			if b.dirtyGen == gen {
				b.dirty = false
				b.dirtyOff, b.dirtyEnd = 0, 0
				hc.nDirty--
			}
			// else: re-dirtied mid-flush; the merged extent re-flushes.
			// Either way the server now holds this flush unstably; the
			// block is pinned until a COMMIT barrier confirms it.
			if !b.unstable {
				b.unstable = true
				hc.nUnstable++
			}
			b.flushedSeq = hc.flushSeq
		}
		hc.cond.Broadcast()
	}
}

// kick lifts the coalescing hold on partial dirty blocks — the
// Seek-discontinuity flush trigger.
func (hc *handleCache) kick() {
	hc.mu.Lock()
	hc.lastWrite = -1
	hc.cond.Broadcast()
	hc.mu.Unlock()
}

// commitBarrierLocked issues one COMMIT and applies its outcome. On
// success it confirms exactly the blocks whose flush reply preceded
// the COMMIT (flushedSeq at most the sequence at issue) — blocks
// flushed while the COMMIT was on the wire stay unstable for the next
// barrier. A verifier that moved since the last COMMIT means the
// server restarted and may have lost acknowledged writes: every
// unstable block is re-dirtied for replay (the NFSv3 client restart
// protocol) and retry is reported. Caller holds hc.mu.
func (hc *handleCache) commitBarrierLocked(ctx context.Context) (retry bool) {
	snapSeq := hc.flushSeq
	if ctx == nil {
		ctx = hc.flushCtx
	}
	hc.mu.Unlock()
	attr, ver, err := hc.sh.nfsc(ctx).Commit(ctx, hc.h)
	hc.mu.Lock()
	if err != nil {
		if hc.werr == nil {
			hc.werr = fmt.Errorf("core: commit: %w", hc.c.wireError(err))
		}
		return false // unstable blocks stay pinned for the next barrier
	}
	if ver != hc.commitVer {
		hc.commitVer = ver
		// Replay: everything uncommitted may have been lost.
		for _, b := range hc.blocks {
			if !b.unstable {
				continue
			}
			b.unstable = false
			hc.nUnstable--
			b.dirtyOff, b.dirtyEnd = 0, len(b.data)
			b.dirtyGen++
			if !b.dirty {
				b.dirty = true
				hc.nDirty++
			}
		}
		hc.cond.Broadcast()
		return true
	}
	for _, b := range hc.blocks {
		if b.unstable && b.flushedSeq <= snapSeq {
			b.unstable = false
			hc.nUnstable--
		}
	}
	// The commit reply is post-flush server truth: ratchet the
	// validator so the next open does not self-invalidate.
	if attr.Mtime.After(hc.valMtime) {
		hc.valMtime = attr.Mtime
	}
	if attr.Size > hc.valSize {
		hc.valSize = attr.Size
	}
	if attr.Size > hc.srvSize {
		hc.srvSize = attr.Size
	}
	hc.cond.Broadcast()
	return false
}

// sync drains the write-behind queue, runs the COMMIT durability
// barrier, and returns (and clears) the first deferred write error —
// the NFS error barrier, shared by File.Sync and File.Close.
//
// Against a write-behind server the drained WRITEs are only unstable;
// COMMIT makes them durable. The loop retries while the server's boot
// verifier keeps moving (replay after restart, bounded) — but one
// successful barrier suffices: unstable blocks it did not cover belong
// to writes concurrent with this sync, which the next barrier owns.
func (hc *handleCache) sync(ctx context.Context) error {
	hc.mu.Lock()
	hc.draining++
	if ctx != nil {
		hc.flushCtx = ctx
	}
	hc.ensureWorkersLocked()
	hc.cond.Broadcast()
	for attempt := 0; ; attempt++ {
		for hc.nDirty > 0 {
			hc.cond.Wait()
		}
		if hc.werr != nil || hc.nUnstable == 0 {
			break
		}
		if attempt > 4 {
			if hc.werr == nil {
				hc.werr = fmt.Errorf("core: commit: server restarted repeatedly during replay: %w", vfs.ErrIO)
			}
			break
		}
		if !hc.commitBarrierLocked(ctx) {
			break // success (or a deferred error); no replay needed
		}
	}
	hc.draining--
	err := hc.werr
	hc.werr = nil
	hc.mu.Unlock()
	return err
}

// truncate resets the cache to the post-SetAttr server state. The
// caller must have drained pending writes first.
func (hc *handleCache) truncate(a vfs.Attr) {
	hc.mu.Lock()
	for idx, b := range hc.blocks {
		if !b.flushing {
			if b.dirty {
				hc.nDirty--
			}
			if b.unstable {
				hc.nUnstable--
			}
			delete(hc.blocks, idx)
		}
	}
	hc.inval++ // in-flight fetches carry pre-truncate bytes
	hc.haveVal = true
	hc.valMtime, hc.valSize = a.Mtime, a.Size
	hc.srvSize = a.Size
	hc.size = int64(a.Size)
	hc.cond.Broadcast()
	hc.mu.Unlock()
}
