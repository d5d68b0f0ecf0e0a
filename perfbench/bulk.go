package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"discfs/internal/core"
	"discfs/internal/keynote"
)

// bulk: one uploader client writes a large file in 1 MiB writes, Syncs
// and Closes it; a freshly attached client then downloads it cold.
// Uploads rotate over a few slots with O_TRUNC so the dedup store keeps
// reclaiming the overwritten file's chunks and stays bounded. Files are
// built from segments, half drawn from a small shared pool (dedup hits)
// and half unique.
type bulk struct {
	seed        uint64
	fileSize    int
	segSize     int
	slots       int
	poolSegs    int
	ioSize      int
	pool        [][]byte
	reader      *keynote.KeyPair
	readerCreds []*keynote.Assertion
	uploader    *core.Client
	next        uint64 // files generated so far (file index of the next upload)
	up, down    []byte
}

func newBulk(seed uint64, quick bool) workload {
	b := &bulk{seed: seed, fileSize: 64 << 20, segSize: 2 << 20, slots: 4, poolSegs: 8, ioSize: 1 << 20}
	if quick {
		b.fileSize, b.segSize, b.slots, b.poolSegs = 4<<20, 256<<10, 2, 2
	}
	return b
}

func (b *bulk) path(slot int) string { return fmt.Sprintf("/bulk-%d.bin", slot) }

// content lays out file k in b.up: each segment is either a pool segment
// or fresh bytes unique to (k, segment), half and half in seeded order.
func (b *bulk) content(k uint64) {
	nseg := b.fileSize / b.segSize
	r := rng(b.seed, 1000+k)
	shared := r.Perm(nseg)[:nseg/2]
	isShared := make([]bool, nseg)
	for _, s := range shared {
		isShared[s] = true
	}
	for s := 0; s < nseg; s++ {
		seg := b.up[s*b.segSize : (s+1)*b.segSize]
		if isShared[s] {
			copy(seg, b.pool[r.IntN(len(b.pool))])
		} else {
			fill(seg, b.seed, 1<<32+k*uint64(nseg)+uint64(s))
		}
	}
}

func (b *bulk) setup(ctx context.Context, st *stack) error {
	b.pool = make([][]byte, b.poolSegs)
	for i := range b.pool {
		b.pool[i] = make([]byte, b.segSize)
		fill(b.pool[i], b.seed, uint64(i))
	}
	b.up = make([]byte, b.fileSize)
	b.down = make([]byte, b.fileSize+1)
	b.reader = keynote.DeterministicKey(fmt.Sprintf("bulk-reader-%d", b.seed))
	cred, err := st.srv.IssueCredential(b.reader.Principal, st.ffs.Root().Ino, "RX", "bulk downloader")
	if err != nil {
		return err
	}
	b.readerCreds = []*keynote.Assertion{cred}
	b.next = 0
	if b.uploader, err = st.dial(ctx, st.admin); err != nil {
		return err
	}
	// Fill every slot so the run starts at its steady store size.
	for slot := 0; slot < b.slots; slot++ {
		b.content(b.next)
		b.next++
		if _, err := b.upload(ctx, nil, slot, nil); err != nil {
			return err
		}
	}
	return nil
}

// upload writes b.up to slot through the uploader and returns the time
// from Open to the end of Close.
func (b *bulk) upload(ctx context.Context, o *op, slot int, r *runStats) (time.Duration, error) {
	t0 := time.Now()
	m := o.mark()
	f, err := b.uploader.Open(ctx, b.path(slot), os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	o.done("open", m)
	if err != nil {
		return 0, err
	}
	for off := 0; off < len(b.up); off += b.ioSize {
		w0 := time.Now()
		m = o.mark()
		_, err = f.Write(b.up[off:min(off+b.ioSize, len(b.up))])
		o.done("write", m)
		if r != nil {
			r.observe("write_call", time.Since(w0))
		}
		if err != nil {
			f.Close()
			return 0, err
		}
	}
	m = o.mark()
	err = f.Sync()
	o.done("sync", m)
	m = o.mark()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	o.done("close", m)
	return time.Since(t0), err
}

// download attaches a fresh client, reads slot into b.down and returns
// the time from Open to the end of Close (the attach is timed apart) and
// the bytes read.
func (b *bulk) download(ctx context.Context, st *stack, o *op, slot int, r *runStats) (time.Duration, int, error) {
	m := o.mark()
	c, err := core.Dial(ctx, st.addr, b.reader)
	o.done("dial", m)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	m = o.mark()
	_, err = c.SubmitCredentials(ctx, b.readerCreds...)
	o.done("submit", m)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	m = o.mark()
	f, err := c.Open(ctx, b.path(slot), os.O_RDONLY)
	o.done("open", m)
	if err != nil {
		return 0, 0, err
	}
	n := 0
	for n < len(b.down) {
		r0 := time.Now()
		m = o.mark()
		k, rerr := f.Read(b.down[n:min(n+b.ioSize, len(b.down))])
		o.done("read", m)
		r.observe("read_call", time.Since(r0))
		n += k
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			f.Close()
			return 0, n, rerr
		}
	}
	m = o.mark()
	err = f.Close()
	o.done("close", m)
	d := time.Since(t0)
	if o != nil {
		o.t.scrape(c)
	}
	return d, n, err
}

func (b *bulk) run(ctx context.Context, st *stack, tr *tracer, d time.Duration, r *runStats) error {
	start := time.Now()
	for slot := 0; time.Since(start) < d; slot = (slot + 1) % b.slots {
		b.content(b.next)
		b.next++

		r.attempted.Add(1)
		o := tr.begin("upload")
		up, err := b.upload(ctx, o, slot, r)
		o.end()
		if err != nil {
			r.fail("upload %s: %v", b.path(slot), err)
			continue
		}
		r.observe("upload", up)
		r.payload.Add(int64(b.fileSize))
		r.written.Add(int64(b.fileSize))

		r.attempted.Add(1)
		o = tr.begin("download")
		down, n, err := b.download(ctx, st, o, slot, r)
		o.end()
		switch {
		case err != nil:
			r.fail("download %s: %v", b.path(slot), err)
			continue
		case n != b.fileSize || !bytes.Equal(b.down[:n], b.up):
			r.fail("download %s: %d bytes differ from the %d uploaded", b.path(slot), n, b.fileSize)
			continue
		}
		r.observe("download", down)
		r.payload.Add(int64(n))
	}
	r.elapsed = time.Since(start)
	if tr != nil {
		tr.scrape(b.uploader)
	}
	return nil
}

func (b *bulk) liveBytes() int64 { return int64(b.slots) * int64(b.fileSize) }

func (b *bulk) teardown() {
	if b.uploader != nil {
		b.uploader.Close()
	}
}
