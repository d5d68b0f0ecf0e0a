package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/core"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
)

// tree: a source-tree-shaped namespace (Fig 12's shape: directories of
// small files) worked on by two principals at once, each holding a
// length-2 delegation chain admin → lead → user scoped to /tree. The
// reader opens and reads whole files (80/20 skew), stats paths and lists
// directories; the editor overwrites files with COMMIT, creates new ones
// and removes its own creations.
type tree struct {
	seed           uint64
	dirs, perDir   int
	files          []treeFile
	hot, cold      []int
	version        []atomic.Uint32
	busy           []atomic.Int32 // 0 free, 1 reader, 2 editor
	reader, editor *keynote.KeyPair
	readerCreds    []*keynote.Assertion
	editorCreds    []*keynote.Assertion

	mu      sync.Mutex
	created []treeFile // the editor's live creations
	nextNew int
}

type treeFile struct {
	path string
	size int
}

// maxCreated bounds the editor's live creations: past it a create turns
// into a remove, so the tree size stays steady.
const maxCreated = 128

const (
	busyFree int32 = iota
	busyReader
	busyEditor
)

func newTree(seed uint64, quick bool) workload {
	t := &tree{seed: seed, dirs: 24, perDir: 64}
	if quick {
		t.dirs, t.perDir = 3, 8
	}
	return t
}

func (t *tree) dir(i int) string { return fmt.Sprintf("/tree/d%02d", i) }

// treeContent is version v of the file at p: a header naming both, then
// a body derived from them, so a reader can tell a complete committed
// version from a torn or stale one.
func (t *tree) content(p string, size int, v uint32) []byte {
	b := make([]byte, size)
	h := fmt.Appendf(nil, "discfs-tree %s v%010d\n", p, v)
	copy(b, h)
	f := fnv.New64a()
	f.Write([]byte(p))
	fill(b[len(h):], t.seed, f.Sum64()^uint64(v)<<40)
	return b
}

// parseVersion reads the version out of a file's header.
func parseVersion(b []byte, p string) (uint32, bool) {
	prefix := "discfs-tree " + p + " v"
	if !bytes.HasPrefix(b, []byte(prefix)) || len(b) < len(prefix)+11 {
		return 0, false
	}
	var v uint32
	if _, err := fmt.Sscanf(string(b[len(prefix):len(prefix)+10]), "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

func (t *tree) setup(ctx context.Context, st *stack) error {
	r := rng(t.seed, 2)
	t.files = t.files[:0]
	for d := 0; d < t.dirs; d++ {
		for f := 0; f < t.perDir; f++ {
			// 512 B .. 23.5 KiB, 12 KiB mean.
			t.files = append(t.files, treeFile{path: fmt.Sprintf("%s/f%03d.c", t.dir(d), f), size: 512 + r.IntN(23<<10)})
		}
	}
	perm := r.Perm(len(t.files))
	nhot := len(t.files) / 5
	t.hot, t.cold = perm[:nhot], perm[nhot:]
	t.version = make([]atomic.Uint32, len(t.files))
	t.busy = make([]atomic.Int32, len(t.files))
	t.created, t.nextNew = nil, 0

	admin, err := st.dial(ctx, st.admin)
	if err != nil {
		return err
	}
	defer admin.Close()
	top, _, err := admin.MkdirPath(ctx, "/tree")
	if err != nil {
		return err
	}
	for d := 0; d < t.dirs; d++ {
		if _, _, err := admin.MkdirPath(ctx, t.dir(d)); err != nil {
			return err
		}
	}
	// Two writers, one client each, fill the tree.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := admin
			if w > 0 {
				if c, errs[w] = st.dial(ctx, st.admin); errs[w] != nil {
					return
				}
				defer c.Close()
			}
			for i := w; i < len(t.files); i += len(errs) {
				f := t.files[i]
				if _, _, err := c.WriteFile(ctx, f.path, t.content(f.path, f.size, 1)); err != nil {
					errs[w] = err
					return
				}
				t.version[i].Store(1)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// admin → lead: the lead may do anything under /tree and search the
	// path down to it. lead → reader / editor: the second link.
	root := st.ffs.Root().Ino
	lead := keynote.DeterministicKey(fmt.Sprintf("tree-lead-%d", t.seed))
	if _, err := st.srv.IssueCredential(lead.Principal, top.Handle.Ino, "RWX", "tree lead"); err != nil {
		return err
	}
	if _, err := st.srv.IssueCredential(lead.Principal, root, "X", "tree lead path walk"); err != nil {
		return err
	}
	grant := func(holder keynote.Principal, value string) ([]*keynote.Assertion, error) {
		var out []*keynote.Assertion
		for _, g := range []struct {
			ino   uint64
			value string
		}{{top.Handle.Ino, value}, {root, "X"}} {
			a, err := keynote.Sign(lead, keynote.AssertionSpec{
				Licensees:  keynote.LicenseesOr(holder),
				Conditions: core.SubtreeConditions(g.ino, g.value, true, ""),
				Comment:    "tree user",
			})
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	}
	t.reader = keynote.DeterministicKey(fmt.Sprintf("tree-reader-%d", t.seed))
	t.editor = keynote.DeterministicKey(fmt.Sprintf("tree-editor-%d", t.seed))
	if t.readerCreds, err = grant(t.reader.Principal, "RX"); err != nil {
		return err
	}
	t.editorCreds, err = grant(t.editor.Principal, "RWX")
	return err
}

// claim marks file i busy for who, or reports that the other side holds
// it. The two sides never touch one file at once, so every read must
// return exactly the last committed version.
func (t *tree) claim(i int, who int32) bool { return t.busy[i].CompareAndSwap(busyFree, who) }
func (t *tree) release(i int)               { t.busy[i].Store(busyFree) }

func (t *tree) attach(ctx context.Context, st *stack, tr *tracer, key *keynote.KeyPair, creds []*keynote.Assertion) (*core.Client, error) {
	o := tr.begin("attach")
	defer o.end()
	m := o.mark()
	c, err := core.Dial(ctx, st.addr, key)
	o.done("dial", m)
	if err != nil {
		return nil, err
	}
	m = o.mark()
	_, err = c.SubmitCredentials(ctx, creds...)
	o.done("submit", m)
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (t *tree) run(ctx context.Context, st *stack, tr *tracer, d time.Duration, r *runStats) error {
	rc, err := t.attach(ctx, st, tr, t.reader, t.readerCreds)
	if err != nil {
		return err
	}
	ec, err := t.attach(ctx, st, tr, t.editor, t.editorCreds)
	if err != nil {
		rc.Close()
		return err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t.readLoop(ctx, rc, tr, deadline, r)
	}()
	go func() {
		defer wg.Done()
		t.editLoop(ctx, ec, tr, deadline, r)
	}()
	wg.Wait()
	r.elapsed = time.Since(start)
	tr.scrape(rc)
	tr.scrape(ec)
	rc.Close()
	ec.Close()
	return nil
}

func (t *tree) readLoop(ctx context.Context, c *core.Client, tr *tracer, deadline time.Time, r *runStats) {
	g := rng(t.seed, 3)
	buf := make([]byte, 32<<10)
	for time.Now().Before(deadline) {
		u := g.Float64()
		r.attempted.Add(1)
		t0 := time.Now()
		var err error
		switch {
		case u < 0.80:
			o := tr.begin("read")
			err = t.readOne(ctx, c, o, g, buf, r)
			o.end()
		case u < 0.95:
			o := tr.begin("stat")
			f := t.files[g.IntN(len(t.files))]
			m := o.mark()
			a, serr := c.ResolvePath(ctx, f.path)
			o.done("stat", m)
			err = serr
			if err == nil && int(a.Size) != f.size {
				err = fmt.Errorf("%w: stat %s: size %d, want %d", errCheck, f.path, a.Size, f.size)
			}
			o.end()
		default:
			o := tr.begin("list")
			di := g.IntN(t.dirs)
			m := o.mark()
			ents, lerr := c.List(ctx, t.dir(di))
			o.done("list", m)
			err = lerr
			if err == nil {
				err = t.checkListing(di, ents)
			}
			o.end()
		}
		if err != nil {
			r.fail("reader: %v", err)
			continue
		}
		r.observe("read", time.Since(t0))
	}
}

func (t *tree) checkListing(di int, ents []nfs.DirEntry) error {
	have := make(map[string]bool, len(ents))
	for _, e := range ents {
		have[e.Name] = true
	}
	for f := 0; f < t.perDir; f++ {
		name := path.Base(t.files[di*t.perDir+f].path)
		if !have[name] {
			return fmt.Errorf("%w: list %s: %s missing", errCheck, t.dir(di), name)
		}
	}
	return nil
}

// readOne reads one base file whole (80% of picks from the hot fifth)
// and checks it is exactly the last committed version.
func (t *tree) readOne(ctx context.Context, c *core.Client, o *op, g *rand.Rand, buf []byte, r *runStats) error {
	i := -1
	for tries := 0; tries < 8 && i < 0; tries++ {
		set := t.cold
		if g.Float64() < 0.8 {
			set = t.hot
		}
		if k := set[g.IntN(len(set))]; t.claim(k, busyReader) {
			i = k
		}
	}
	if i < 0 {
		return errors.New("no unclaimed file in 8 picks")
	}
	defer t.release(i)
	f := t.files[i]
	m := o.mark()
	fh, err := c.Open(ctx, f.path, os.O_RDONLY)
	o.done("open", m)
	if err != nil {
		return err
	}
	m = o.mark()
	n, err := readFull(fh, buf)
	o.done("read", m)
	m = o.mark()
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	o.done("close", m)
	if err != nil {
		return fmt.Errorf("read %s: %w", f.path, err)
	}
	r.payload.Add(int64(n))
	want := t.version[i].Load()
	if v, ok := parseVersion(buf[:n], f.path); !ok || v != want {
		return fmt.Errorf("%w: read %s: header version %d (ok=%v), want %d", errCheck, f.path, v, ok, want)
	}
	if !bytes.Equal(buf[:n], t.content(f.path, f.size, want)) {
		return fmt.Errorf("%w: read %s v%d: body differs", errCheck, f.path, want)
	}
	return nil
}

func (t *tree) editLoop(ctx context.Context, c *core.Client, tr *tracer, deadline time.Time, r *runStats) {
	g := rng(t.seed, 4)
	for time.Now().Before(deadline) {
		u := g.Float64()
		r.attempted.Add(1)
		t0 := time.Now()
		var err error
		t.mu.Lock()
		ncreated := len(t.created)
		t.mu.Unlock()
		switch {
		case u < 0.70:
			o := tr.begin("overwrite")
			err = t.overwrite(ctx, c, o, g, r)
			o.end()
		case (u < 0.90 && ncreated < maxCreated) || ncreated == 0:
			o := tr.begin("create")
			err = t.create(ctx, c, o, g, r)
			o.end()
		default:
			o := tr.begin("remove")
			err = t.remove(ctx, c, o, g)
			o.end()
		}
		if err != nil {
			r.fail("editor: %v", err)
			continue
		}
		r.observe("write", time.Since(t0))
	}
}

// put writes data as the whole content of p, then COMMITs and closes.
func put(ctx context.Context, c *core.Client, o *op, p string, flag int, data []byte) error {
	m := o.mark()
	f, err := c.Open(ctx, p, flag)
	o.done("open", m)
	if err != nil {
		return err
	}
	m = o.mark()
	_, err = f.Write(data)
	o.done("write", m)
	if err == nil {
		m = o.mark()
		err = f.Sync()
		o.done("sync", m)
	}
	m = o.mark()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	o.done("close", m)
	if err != nil {
		return fmt.Errorf("write %s: %w", p, err)
	}
	return nil
}

// overwrite rewrites a base file in place with its next version. Sizes
// are fixed per path, so no truncation is needed.
func (t *tree) overwrite(ctx context.Context, c *core.Client, o *op, g *rand.Rand, r *runStats) error {
	i := -1
	for tries := 0; tries < 8 && i < 0; tries++ {
		if k := g.IntN(len(t.files)); t.claim(k, busyEditor) {
			i = k
		}
	}
	if i < 0 {
		return errors.New("no unclaimed file in 8 picks")
	}
	defer t.release(i)
	f := t.files[i]
	v := t.version[i].Load() + 1
	data := t.content(f.path, f.size, v)
	if err := put(ctx, c, o, f.path, os.O_WRONLY, data); err != nil {
		return err
	}
	t.version[i].Store(v)
	r.payload.Add(int64(len(data)))
	r.written.Add(int64(len(data)))
	return nil
}

func (t *tree) create(ctx context.Context, c *core.Client, o *op, g *rand.Rand, r *runStats) error {
	t.mu.Lock()
	nf := treeFile{path: fmt.Sprintf("%s/e%06d.c", t.dir(g.IntN(t.dirs)), t.nextNew), size: 512 + g.IntN(23<<10)}
	t.nextNew++
	t.mu.Unlock()
	data := t.content(nf.path, nf.size, 1)
	if err := put(ctx, c, o, nf.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, data); err != nil {
		return err
	}
	t.mu.Lock()
	t.created = append(t.created, nf)
	t.mu.Unlock()
	r.payload.Add(int64(len(data)))
	r.written.Add(int64(len(data)))
	return nil
}

func (t *tree) remove(ctx context.Context, c *core.Client, o *op, g *rand.Rand) error {
	t.mu.Lock()
	k := g.IntN(len(t.created))
	nf := t.created[k]
	t.created[k] = t.created[len(t.created)-1]
	t.created = t.created[:len(t.created)-1]
	t.mu.Unlock()
	m := o.mark()
	dir, err := c.ResolvePath(ctx, path.Dir(nf.path))
	if err == nil {
		err = c.NFS().Remove(ctx, dir.Handle, path.Base(nf.path))
	}
	o.done("remove", m)
	if err != nil {
		return fmt.Errorf("remove %s: %w", nf.path, err)
	}
	return nil
}

func (t *tree) liveBytes() int64 {
	var n int64
	for _, f := range t.files {
		n += int64(f.size)
	}
	t.mu.Lock()
	for _, f := range t.created {
		n += int64(f.size)
	}
	t.mu.Unlock()
	return n
}

func (t *tree) teardown() {}
