package nfs

import (
	"context"
	"sync"
	"time"

	"discfs/internal/vfs"
)

// CachingClient wraps a Client with attribute, name and negative-name
// caching, the way kernel NFS clients do (the acregmin/acregmax
// "actimeo" machinery plus the dentry cache). GETATTR and LOOKUP
// results — including misses — are served from cache within the TTL;
// local mutations invalidate the affected entries. This buys the usual
// NFS trade: dramatically fewer metadata RPCs for close-to-open
// consistency instead of strict consistency — remote writers may be
// invisible for up to TTL.
//
// Invalidation discipline: every invalidation bumps a generation
// counter (the client-side analogue of the server's path epoch from the
// authorization pipeline: one cheap counter whose bump retires a whole
// class of cached state at once). Every RPC-filling path snapshots the
// generation before issuing the RPC and installs its result only if no
// invalidation ran in between — otherwise a Lookup/GetAttr that started
// before a concurrent forgetDir/forgetHandle would re-install the stale
// result after the invalidation. A spuriously skipped install (the
// invalidation was for an unrelated entry) just costs one extra miss.
type CachingClient struct {
	*Client
	ttl time.Duration
	now func() time.Time

	mu sync.Mutex
	// gen is the invalidation generation, bumped by every forget/purge
	// and checked at insert.
	gen   uint64
	attrs map[vfs.Handle]attrEntry
	looks map[lookupKey]lookupEntry
	// negs caches lookup misses: a name known absent from a directory
	// answers ErrNoEnt without an RPC until the TTL passes or the
	// directory is invalidated.
	negs map[lookupKey]negEntry

	hits, misses uint64
}

type attrEntry struct {
	attr    vfs.Attr
	expires time.Time
}

type lookupKey struct {
	dir  vfs.Handle
	name string
}

type lookupEntry struct {
	attr    vfs.Attr
	expires time.Time
}

type negEntry struct {
	expires time.Time
}

// DefaultAttrTTL matches the traditional acregmin default of 3 seconds.
const DefaultAttrTTL = 3 * time.Second

// NewCachingClient wraps c. ttl of 0 means DefaultAttrTTL.
func NewCachingClient(c *Client, ttl time.Duration) *CachingClient {
	if ttl == 0 {
		ttl = DefaultAttrTTL
	}
	return &CachingClient{
		Client: c,
		ttl:    ttl,
		now:    time.Now,
		attrs:  make(map[vfs.Handle]attrEntry),
		looks:  make(map[lookupKey]lookupEntry),
		negs:   make(map[lookupKey]negEntry),
	}
}

// TTL reports the configured attribute/name cache lifetime.
func (c *CachingClient) TTL() time.Duration { return c.ttl }

// CacheStats reports cumulative hit/miss counts across the caches.
func (c *CachingClient) CacheStats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// generation snapshots the invalidation generation; take it before an
// RPC whose result will be installed with installAt.
func (c *CachingClient) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// installAt stores attrs, but only if no invalidation ran since gen was
// snapshotted — the insert-time generation check.
func (c *CachingClient) installAt(gen uint64, a vfs.Attr) {
	c.mu.Lock()
	if c.gen == gen {
		c.attrs[a.Handle] = attrEntry{attr: a, expires: c.now().Add(c.ttl)}
	}
	c.mu.Unlock()
}

// forgetHandle drops the attribute entry for h.
func (c *CachingClient) forgetHandle(h vfs.Handle) {
	c.mu.Lock()
	c.gen++
	delete(c.attrs, h)
	c.mu.Unlock()
}

// forgetDir drops the dir's attribute entry and every lookup — positive
// and negative — under it.
func (c *CachingClient) forgetDir(dir vfs.Handle) {
	c.mu.Lock()
	c.forgetDirLocked(dir)
	c.mu.Unlock()
}

func (c *CachingClient) forgetDirLocked(dir vfs.Handle) {
	c.gen++
	delete(c.attrs, dir)
	for k := range c.looks {
		if k.dir == dir {
			delete(c.looks, k)
		}
	}
	for k := range c.negs {
		if k.dir == dir {
			delete(c.negs, k)
		}
	}
}

// installNew is the mutation-path install: in one critical section,
// invalidate the directory (the op changed it) and install the op's own
// fresh result plus its lookup entry. Folding both into one section
// keeps the op's install from racing its own invalidation.
func (c *CachingClient) installNew(dir vfs.Handle, name string, a vfs.Attr) {
	c.mu.Lock()
	c.forgetDirLocked(dir)
	exp := c.now().Add(c.ttl)
	c.attrs[a.Handle] = attrEntry{attr: a, expires: exp}
	c.looks[lookupKey{dir, name}] = lookupEntry{attr: a, expires: exp}
	c.mu.Unlock()
}

// GetAttr serves from cache within the TTL.
func (c *CachingClient) GetAttr(ctx context.Context, h vfs.Handle) (vfs.Attr, error) {
	c.mu.Lock()
	if e, ok := c.attrs[h]; ok && c.now().Before(e.expires) {
		c.hits++
		c.mu.Unlock()
		return e.attr, nil
	}
	c.misses++
	gen := c.gen
	c.mu.Unlock()
	a, err := c.Client.GetAttr(ctx, h)
	if err != nil {
		c.forgetHandle(h)
		return a, err
	}
	c.installAt(gen, a)
	return a, nil
}

// Revalidate forces a fresh GETATTR for h, bypassing the TTL, and
// installs the result — the close-to-open revalidation step: callers
// compare the returned attributes (mtime, size) against their cached
// view and invalidate derived state on mismatch.
func (c *CachingClient) Revalidate(ctx context.Context, h vfs.Handle) (vfs.Attr, error) {
	gen := c.generation()
	a, err := c.Client.GetAttr(ctx, h)
	if err != nil {
		c.forgetHandle(h)
		return a, err
	}
	c.installAt(gen, a)
	return a, nil
}

// Lookup serves from cache within the TTL — including cached misses,
// which answer ErrNoEnt without an RPC. A cache miss goes to the
// compound LOOKUPPLUS: one round trip fills the child's attributes,
// the directory's attributes and — on a miss — a negative entry.
func (c *CachingClient) Lookup(ctx context.Context, dir vfs.Handle, name string) (vfs.Attr, error) {
	key := lookupKey{dir, name}
	c.mu.Lock()
	if e, ok := c.looks[key]; ok && c.now().Before(e.expires) {
		c.hits++
		c.mu.Unlock()
		return e.attr, nil
	}
	if e, ok := c.negs[key]; ok && c.now().Before(e.expires) {
		c.hits++
		c.mu.Unlock()
		return vfs.Attr{}, &Error{Stat: ErrNoEnt}
	}
	c.misses++
	gen := c.gen
	c.mu.Unlock()

	r, err := c.Client.LookupPlus(ctx, dir, name)
	if err != nil {
		if StatOf(err) == ErrNoEnt {
			c.mu.Lock()
			if c.gen == gen {
				exp := c.now().Add(c.ttl)
				c.negs[key] = negEntry{expires: exp}
				c.attrs[dir] = attrEntry{attr: r.Dir, expires: exp}
			}
			c.mu.Unlock()
		}
		return vfs.Attr{}, err
	}
	c.mu.Lock()
	if c.gen == gen {
		exp := c.now().Add(c.ttl)
		c.looks[key] = lookupEntry{attr: r.Attr, expires: exp}
		c.attrs[r.Attr.Handle] = attrEntry{attr: r.Attr, expires: exp}
		c.attrs[dir] = attrEntry{attr: r.Dir, expires: exp}
	}
	c.mu.Unlock()
	return r.Attr, nil
}

// ReadDirPlusAll lists dir with piggybacked attributes and bulk-installs
// the results: the directory's own attributes, every carried entry's
// attributes, and the matching (dir, name) lookup entries — one call
// primes the cache for the per-file GetAttr/Lookup traffic of a tree
// walk. The whole batch is generation-checked as one install.
func (c *CachingClient) ReadDirPlusAll(ctx context.Context, dir vfs.Handle) ([]DirEntryPlus, error) {
	gen := c.generation()
	dirA, ents, err := c.Client.ReadDirPlusAll(ctx, dir)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.gen == gen {
		exp := c.now().Add(c.ttl)
		c.attrs[dir] = attrEntry{attr: dirA, expires: exp}
		for _, e := range ents {
			if !e.HasAttr {
				continue
			}
			c.attrs[e.Attr.Handle] = attrEntry{attr: e.Attr, expires: exp}
			c.looks[lookupKey{dir, e.Name}] = lookupEntry{attr: e.Attr, expires: exp}
		}
	}
	c.mu.Unlock()
	return ents, nil
}

// Read updates the attribute cache from the piggybacked fattr.
func (c *CachingClient) Read(ctx context.Context, h vfs.Handle, offset, count uint32) ([]byte, vfs.Attr, error) {
	gen := c.generation()
	data, a, err := c.Client.Read(ctx, h, offset, count)
	if err == nil {
		c.installAt(gen, a)
	}
	return data, a, err
}

// Write invalidates and refreshes the file's attributes.
func (c *CachingClient) Write(ctx context.Context, h vfs.Handle, offset uint32, data []byte) (vfs.Attr, error) {
	gen := c.generation()
	a, err := c.Client.Write(ctx, h, offset, data)
	if err != nil {
		c.forgetHandle(h)
		return a, err
	}
	c.installAt(gen, a)
	return a, nil
}

// SetAttr refreshes the cache with the returned attributes.
func (c *CachingClient) SetAttr(ctx context.Context, h vfs.Handle, sa SAttr) (vfs.Attr, error) {
	gen := c.generation()
	a, err := c.Client.SetAttr(ctx, h, sa)
	if err != nil {
		c.forgetHandle(h)
		return a, err
	}
	c.installAt(gen, a)
	return a, nil
}

// Create invalidates the directory and caches the new file.
func (c *CachingClient) Create(ctx context.Context, dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	a, err := c.Client.Create(ctx, dir, name, mode)
	if err != nil {
		c.forgetDir(dir)
		return a, err
	}
	c.installNew(dir, name, a)
	return a, nil
}

// Mkdir invalidates the parent and caches the new directory.
func (c *CachingClient) Mkdir(ctx context.Context, dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	a, err := c.Client.Mkdir(ctx, dir, name, mode)
	if err != nil {
		c.forgetDir(dir)
		return a, err
	}
	c.installNew(dir, name, a)
	return a, nil
}

// Remove invalidates the directory and the dead entry.
func (c *CachingClient) Remove(ctx context.Context, dir vfs.Handle, name string) error {
	err := c.Client.Remove(ctx, dir, name)
	c.forgetDir(dir)
	return err
}

// Rmdir invalidates the parent.
func (c *CachingClient) Rmdir(ctx context.Context, dir vfs.Handle, name string) error {
	err := c.Client.Rmdir(ctx, dir, name)
	c.forgetDir(dir)
	return err
}

// Rename invalidates both directories.
func (c *CachingClient) Rename(ctx context.Context, fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	err := c.Client.Rename(ctx, fromDir, fromName, toDir, toName)
	c.forgetDir(fromDir)
	c.forgetDir(toDir)
	return err
}

// Link invalidates the directory and the target's attributes (nlink).
func (c *CachingClient) Link(ctx context.Context, target vfs.Handle, dir vfs.Handle, name string) error {
	err := c.Client.Link(ctx, target, dir, name)
	c.forgetDir(dir)
	c.forgetHandle(target)
	return err
}

// Symlink invalidates the directory.
func (c *CachingClient) Symlink(ctx context.Context, dir vfs.Handle, name, targetPath string, mode uint32) error {
	err := c.Client.Symlink(ctx, dir, name, targetPath, mode)
	c.forgetDir(dir)
	return err
}

// Purge drops every cached entry (e.g. after credential changes alter
// what the masked modes look like).
func (c *CachingClient) Purge() {
	c.mu.Lock()
	c.gen++
	c.attrs = make(map[vfs.Handle]attrEntry)
	c.looks = make(map[lookupKey]lookupEntry)
	c.negs = make(map[lookupKey]negEntry)
	c.mu.Unlock()
}
