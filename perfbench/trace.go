package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started. Req groups the spans of one end-to-end op
// (0 for server-side shim spans, which carry no cross-wire parent).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-layer counters but are not written out.
const maxSpans = 200_000

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer is the untraced run: every method is a no-op, so the
// measured run pays only a nil check per call.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int

	// Benchmark-timed core.Client / core.File calls, by call name.
	core map[string]*layerStat
	// Client RPC totals folded in from each client's registry (under mu).
	rpcs, rpcSeconds float64
}

// coreCalls are the client calls the workloads time.
var coreCalls = []string{"dial", "submit", "open", "read", "write", "sync", "close", "stat", "list", "remove", "delegate", "revoke"}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), core: make(map[string]*layerStat, len(coreCalls))}
	for _, c := range coreCalls {
		t.core[c] = &layerStat{}
	}
	return t
}

// reset drops the spans recorded so far (those of the set-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = t.spans[:0], 0
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// op is one end-to-end operation: the root span its core calls hang
// under. A nil *op (untraced run) records nothing.
type op struct {
	t     *tracer
	id    uint64
	start int64
	name  string
}

func (t *tracer) begin(name string) *op {
	if t == nil {
		return nil
	}
	return &op{t: t, id: t.ids.Add(1), start: t.now(), name: name}
}

func (o *op) end() {
	if o == nil {
		return
	}
	o.t.add(span{ID: o.id, Req: o.id, Name: o.name, Start: o.start, End: o.t.now()})
}

// mark starts timing one core call under o; done records it.
func (o *op) mark() int64 {
	if o == nil {
		return 0
	}
	return o.t.now()
}

func (o *op) done(call string, start int64) {
	if o == nil {
		return
	}
	end := o.t.now()
	o.t.core[call].observe(end - start)
	o.t.add(span{ID: o.t.ids.Add(1), Parent: o.id, Req: o.id, Name: "core." + call, Start: start, End: end})
}

// write saves the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat counts one layer's calls and busy time (the sum of call
// durations, so concurrent calls each count).
type layerStat struct {
	calls, busyNs atomic.Int64
}

func (l *layerStat) observe(ns int64) {
	l.calls.Add(1)
	l.busyNs.Add(ns)
}

func (l *layerStat) busyMs() float64 { return float64(l.busyNs.Load()) / 1e6 }

// selfMs is a layer's busy time minus the busy time of the layer below
// it that ran nested inside its calls. Every call into the lower shim
// comes from the upper layer's own calls (each shim has exactly one
// caller), so the subtraction is exact.
func selfMs(busy, nestedBelow float64) float64 {
	if busy < nestedBelow {
		return 0
	}
	return busy - nestedBelow
}

// fsShim times every call into the vfs.FS below it. It forwards the
// optional vfs.Syncer and vfs.ReaderInto capabilities through the vfs
// helpers, so the layer above takes exactly the path it would take
// without the shim: zero-copy reads stay zero-copy and COMMIT barriers
// still reach the store.
type fsShim struct {
	next vfs.FS
	name string
	t    *tracer
	stat layerStat
	// Payload bytes moved through Read/ReadInto and Write.
	bytesRead, bytesWritten atomic.Int64
}

var (
	_ vfs.FS         = (*fsShim)(nil)
	_ vfs.Syncer     = (*fsShim)(nil)
	_ vfs.ReaderInto = (*fsShim)(nil)
)

func (s *fsShim) done(call string, t0 time.Time) {
	d := time.Since(t0)
	s.stat.observe(int64(d))
	if s.t != nil {
		start := int64(t0.Sub(s.t.t0))
		s.t.add(span{ID: s.t.ids.Add(1), Name: s.name + "." + call, Start: start, End: start + int64(d)})
	}
}

func (s *fsShim) Root() vfs.Handle { return s.next.Root() }

func (s *fsShim) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	defer s.done("GetAttr", time.Now())
	return s.next.GetAttr(h)
}

func (s *fsShim) SetAttr(h vfs.Handle, a vfs.SetAttr) (vfs.Attr, error) {
	defer s.done("SetAttr", time.Now())
	return s.next.SetAttr(h, a)
}

func (s *fsShim) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	defer s.done("Lookup", time.Now())
	return s.next.Lookup(dir, name)
}

func (s *fsShim) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	defer s.done("Read", time.Now())
	data, eof, err := s.next.Read(h, off, count)
	s.bytesRead.Add(int64(len(data)))
	return data, eof, err
}

func (s *fsShim) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	defer s.done("ReadInto", time.Now())
	n, eof, err := vfs.ReadFSInto(s.next, h, off, dst)
	s.bytesRead.Add(int64(n))
	return n, eof, err
}

func (s *fsShim) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	defer s.done("Write", time.Now())
	a, err := s.next.Write(h, off, data)
	if err == nil {
		s.bytesWritten.Add(int64(len(data)))
	}
	return a, err
}

func (s *fsShim) Sync() error {
	defer s.done("Sync", time.Now())
	return vfs.SyncFS(s.next)
}

func (s *fsShim) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	defer s.done("Create", time.Now())
	return s.next.Create(dir, name, mode)
}

func (s *fsShim) Remove(dir vfs.Handle, name string) error {
	defer s.done("Remove", time.Now())
	return s.next.Remove(dir, name)
}

func (s *fsShim) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	defer s.done("Rename", time.Now())
	return s.next.Rename(fromDir, fromName, toDir, toName)
}

func (s *fsShim) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	defer s.done("Mkdir", time.Now())
	return s.next.Mkdir(dir, name, mode)
}

func (s *fsShim) Rmdir(dir vfs.Handle, name string) error {
	defer s.done("Rmdir", time.Now())
	return s.next.Rmdir(dir, name)
}

func (s *fsShim) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	defer s.done("ReadDir", time.Now())
	return s.next.ReadDir(dir)
}

func (s *fsShim) Symlink(dir vfs.Handle, name, target string, mode uint32) (vfs.Attr, error) {
	defer s.done("Symlink", time.Now())
	return s.next.Symlink(dir, name, target, mode)
}

func (s *fsShim) Readlink(h vfs.Handle) (string, error) {
	defer s.done("Readlink", time.Now())
	return s.next.Readlink(h)
}

func (s *fsShim) Link(dir vfs.Handle, name string, target vfs.Handle) (vfs.Attr, error) {
	defer s.done("Link", time.Now())
	return s.next.Link(dir, name, target)
}

func (s *fsShim) StatFS() (vfs.StatFS, error) {
	defer s.done("StatFS", time.Now())
	return s.next.StatFS()
}

// devShim counts and times every block the FFS moves. It forwards
// ffs.SyncDevice, so FFS still issues its metadata and COMMIT barriers.
// Block calls are too many to keep as spans; they feed counters only.
type devShim struct {
	next ffs.BlockDevice

	reads, writes, syncs, seeks atomic.Int64
	bytesWritten, busyNs        atomic.Int64
	last                        atomic.Int64 // last block touched, for seek counting
}

var (
	_ ffs.BlockDevice = (*devShim)(nil)
	_ ffs.SyncDevice  = (*devShim)(nil)
)

func (d *devShim) BlockSize() int    { return d.next.BlockSize() }
func (d *devShim) NumBlocks() uint32 { return d.next.NumBlocks() }

// seek counts an access that does not continue from the previous one.
func (d *devShim) seek(bn uint32) {
	if prev := d.last.Swap(int64(bn)); prev != int64(bn) && prev+1 != int64(bn) {
		d.seeks.Add(1)
	}
}

func (d *devShim) ReadBlock(bn uint32, buf []byte) error {
	t0 := time.Now()
	err := d.next.ReadBlock(bn, buf)
	d.busyNs.Add(int64(time.Since(t0)))
	d.reads.Add(1)
	d.seek(bn)
	return err
}

func (d *devShim) WriteBlock(bn uint32, data []byte) error {
	t0 := time.Now()
	err := d.next.WriteBlock(bn, data)
	d.busyNs.Add(int64(time.Since(t0)))
	d.writes.Add(1)
	d.bytesWritten.Add(int64(len(data)))
	d.seek(bn)
	return err
}

func (d *devShim) Sync() error {
	t0 := time.Now()
	var err error
	if sd, ok := d.next.(ffs.SyncDevice); ok {
		err = sd.Sync()
	}
	d.busyNs.Add(int64(time.Since(t0)))
	d.syncs.Add(1)
	return err
}
