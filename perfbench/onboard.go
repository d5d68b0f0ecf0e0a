package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/core"
	"discfs/internal/keynote"
)

// onboard: the paper's headline flow. An owner holding credentials on
// /share signs a fresh delegation to a new key; the newcomer attaches,
// submits it, and reads a file — the first byte a collaborator with no
// account ever gets. Every revokeEvery-th newcomer is then revoked by
// the administrator and must be refused at its next attach.
type onboard struct {
	seed     uint64
	fileSize int
	preload  int
	data     []byte
	shareIno uint64
	rootIno  uint64
	owner    *core.Client
	admin    *core.Client
	next     atomic.Uint64
}

const revokeEvery = 16

func newOnboard(seed uint64, quick bool) workload {
	o := &onboard{seed: seed, fileSize: 64 << 10, preload: 8192}
	if quick {
		o.preload = 64
	}
	return o
}

func (w *onboard) setup(ctx context.Context, st *stack) error {
	w.data = make([]byte, w.fileSize)
	fill(w.data, w.seed, 5)
	w.next.Store(0)
	var err error
	if w.admin, err = st.dial(ctx, st.admin); err != nil {
		return err
	}
	share, _, err := w.admin.MkdirPath(ctx, "/share")
	if err != nil {
		return err
	}
	if _, _, err := w.admin.MkdirPath(ctx, "/private"); err != nil {
		return err
	}
	if _, _, err := w.admin.WriteFile(ctx, "/share/data", w.data); err != nil {
		return err
	}
	secret := make([]byte, 4096)
	fill(secret, w.seed, 6)
	if _, _, err := w.admin.WriteFile(ctx, "/private/secret", secret); err != nil {
		return err
	}
	w.shareIno, w.rootIno = share.Handle.Ino, st.ffs.Root().Ino

	// The owner holds read-write on /share (plus search, which directory
	// lookups need) and search on the path down to it.
	ownerKey := keynote.DeterministicKey(fmt.Sprintf("onboard-owner-%d", w.seed))
	if _, err := st.srv.IssueCredential(ownerKey.Principal, w.shareIno, "RWX", "share owner"); err != nil {
		return err
	}
	if _, err := st.srv.IssueCredential(ownerKey.Principal, w.rootIno, "X", "share owner path walk"); err != nil {
		return err
	}
	if w.owner, err = st.dial(ctx, ownerKey); err != nil {
		return err
	}
	// Existing collaborators, submitted the way they reach the server in
	// use: over RPC, in batches.
	const batch = 64
	var creds []*keynote.Assertion
	for i := 0; i < w.preload; i++ {
		k := keynote.DeterministicKey(fmt.Sprintf("onboard-collab-%d-%d", w.seed, i))
		a, err := w.owner.Delegate(ctx, k.Principal, w.shareIno, "RX", "collaborator")
		if err != nil {
			return err
		}
		creds = append(creds, a)
		if len(creds) == batch || i == w.preload-1 {
			if _, err := w.owner.SubmitCredentials(ctx, creds...); err != nil {
				return err
			}
			creds = creds[:0]
		}
	}
	return nil
}

func (w *onboard) run(ctx context.Context, st *stack, tr *tracer, d time.Duration, r *runStats) error {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, w.fileSize+1)
			for time.Now().Before(deadline) {
				i := w.next.Add(1) - 1
				r.attempted.Add(1)
				if err := w.one(ctx, st, tr, i, buf, r); err != nil {
					r.fail("onboard %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return nil
}

// one onboards newcomer i and checks everything it sees.
func (w *onboard) one(ctx context.Context, st *stack, tr *tracer, i uint64, buf []byte, r *runStats) error {
	key := keynote.DeterministicKey(fmt.Sprintf("onboard-new-%d-%d", w.seed, i))
	o := tr.begin("onboard")
	t0 := time.Now()
	m := o.mark()
	shareCred, err := w.owner.Delegate(ctx, key.Principal, w.shareIno, "RX", "newcomer")
	var walkCred *keynote.Assertion
	if err == nil {
		walkCred, err = w.owner.Delegate(ctx, key.Principal, w.rootIno, "X", "newcomer path walk")
	}
	o.done("delegate", m)
	if err != nil {
		o.end()
		return err
	}
	m = o.mark()
	c, err := core.Dial(ctx, st.addr, key)
	o.done("dial", m)
	if err != nil {
		o.end()
		return err
	}
	n, err := w.firstRead(ctx, c, o, buf, shareCred, walkCred)
	lat := time.Since(t0)
	o.end()
	if err == nil && !bytes.Equal(buf[:n], w.data) {
		err = fmt.Errorf("%w: /share/data: %d bytes differ from the %d written", errCheck, n, len(w.data))
	}
	if err == nil && i%revokeEvery == revokeEvery-1 {
		// The read grant is scoped to /share: the rest stays shut.
		if _, rerr := c.ReadFile(ctx, "/private/secret"); !errors.Is(rerr, core.ErrAccessDenied) {
			err = fmt.Errorf("%w: out-of-subtree read: got %v, want access denied", errCheck, rerr)
		}
	}
	tr.scrape(c)
	c.Close()
	if err != nil {
		return err
	}
	r.observe("onboard", lat)
	r.payload.Add(int64(n))
	if i%revokeEvery != revokeEvery-1 {
		return nil
	}
	o = tr.begin("revoke")
	m = o.mark()
	_, err = w.admin.RevokeKey(ctx, key.Principal)
	o.done("revoke", m)
	o.end()
	if err != nil {
		return fmt.Errorf("revoke: %w", err)
	}
	if c2, err := core.Dial(ctx, st.addr, key); !errors.Is(err, core.ErrRevoked) {
		if c2 != nil {
			c2.Close()
		}
		return fmt.Errorf("%w: re-dial after revocation: got %v, want key revoked", errCheck, err)
	}
	return nil
}

// firstRead submits the newcomer's credentials and reads /share/data.
func (w *onboard) firstRead(ctx context.Context, c *core.Client, o *op, buf []byte, creds ...*keynote.Assertion) (int, error) {
	m := o.mark()
	_, err := c.SubmitCredentials(ctx, creds...)
	o.done("submit", m)
	if err != nil {
		return 0, err
	}
	m = o.mark()
	f, err := c.Open(ctx, "/share/data", os.O_RDONLY)
	o.done("open", m)
	if err != nil {
		return 0, err
	}
	m = o.mark()
	n, err := readFull(f, buf)
	o.done("read", m)
	m = o.mark()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	o.done("close", m)
	return n, err
}

func (w *onboard) teardown() {
	if w.owner != nil {
		w.owner.Close()
	}
	if w.admin != nil {
		w.admin.Close()
	}
}

func (w *onboard) liveBytes() int64 { return int64(w.fileSize) + 4096 }
