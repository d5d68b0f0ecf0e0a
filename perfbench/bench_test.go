package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

func TestTailRankKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{
		{2000, 1979}, // p99 itself: 20 samples above
		{1100, 1088}, // p99 itself: 11 above
		{1000, 989},  // p99 is index 989: exactly 10 above
		{500, 489},   // p99 would leave 5 above: fall back to 10 above
		{11, 0},      // the only rank with 10 above
		{5, 2},       // too few for any: the median
	} {
		got := tailRank(0.99, tc.n)
		if got != tc.want {
			t.Errorf("tailRank(0.99, %d) = %d, want %d", tc.n, got, tc.want)
		}
		if tc.n > minBeyond && tc.n-1-got < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, tc.n-1-got)
		}
	}
	var d dist
	for i := 1; i <= 500; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	s := summarize(d, 0.99)
	if s.Tail != 490*time.Millisecond || s.P50 != 250*time.Millisecond || s.N != 500 {
		t.Errorf("summarize 1..500 ms = %+v, want tail 490ms p50 250ms", s)
	}
	if s.TailQ != 0.98 {
		t.Errorf("reported tail quantile %v, want 0.98", s.TailQ)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfMs(10, 7); got != 3 {
		t.Errorf("selfMs(10, 7) = %v, want 3", got)
	}
	if got := selfMs(5, 7); got != 0 {
		t.Errorf("selfMs(5, 7) = %v, want 0 (clock skew never reads negative)", got)
	}
}

func TestRatioBases(t *testing.T) {
	if ratio(3, 0) != 0 {
		t.Error("a zero base must read 0, not NaN or Inf")
	}
	a := snapshot{server: map[string]float64{}}
	b := snapshot{server: map[string]float64{
		`discfs_nfs_latency_seconds_count{proc="read"}`: 4,
		`discfs_nfs_latency_seconds_sum{proc="read"}`:   0.002,
	}}
	a.stats.CacheHits, a.stats.CacheMisses = 10, 10
	b.stats.CacheHits, b.stats.CacheMisses = 40, 20 // +30 hits, +10 misses
	b.stats.WritesGathered, b.stats.BackendWrites = 12, 4
	b.dedup.BytesStored, b.dedup.BytesLogical = 300, 1200
	b.pool.Gets, b.pool.Misses = 50, 5
	a.devWritten, b.devWritten = 100, 900
	b.cfsBusy, b.ffsBusy, b.devBusy = 9e6, 6e6, 2e6
	tr := newTracer()
	tr.rpcs, tr.rpcSeconds = 20, 0.1
	r := newRunStats()
	r.attempted.Store(12)
	r.failed.Store(2)
	r.written.Store(400)
	got := map[string]float64{}
	for _, m := range layerMetrics(a, b, tr, r) {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"cache.decision_hit_ratio":         0.75, // 30 / (30+10), deltas not totals
		"writegather.gather_ratio":         3,    // 12 WRITEs / 4 backend writes
		"dedup.stored_per_logical":         0.25,
		"bufpool.miss_ratio":               0.1,
		"device.bytes_written_per_logical": 2, // 800 device bytes / 400 file bytes
		"core.rpc_per_op":                  2, // 20 RPCs / 10 completed ops
		"core.rpc_ms":                      5,
		"nfs.READ.service_ms":              0.5,
		"wire.rpc_gap_ms":                  4.5, // 5 ms client - 0.5 ms server
		"cfs.self_ms":                      3,   // 9 - 6
		"ffs.self_ms":                      4,   // 6 - 2
		"core.path_cache_hit_ratio":        0,   // no lookups: zero base
	} {
		if g, ok := got[name]; !ok || g < want-1e-9 || g > want+1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, want)
		}
	}
}

// recFS records which capability calls reach it.
type recFS struct {
	vfs.FS
	readInto, read, sync int
}

func (r *recFS) Read(h vfs.Handle, off uint64, n uint32) ([]byte, bool, error) {
	r.read++
	return r.FS.Read(h, off, n)
}

func (r *recFS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	r.readInto++
	return vfs.ReadFSInto(r.FS, h, off, dst)
}

func (r *recFS) Sync() error { r.sync++; return vfs.SyncFS(r.FS) }

// recDev records device barriers.
type recDev struct {
	ffs.BlockDevice
	syncs int
}

func (d *recDev) Sync() error { d.syncs++; return nil }

func TestShimsForwardCapabilities(t *testing.T) {
	under, err := ffs.New(ffs.Config{NumBlocks: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recFS{FS: under}
	var s vfs.FS = &fsShim{next: rec, name: "x"}
	a, err := s.Create(s.Root(), "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(a.Handle, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// The NFS server reads through vfs.ReadFSInto: with the shim in
	// between it must still take the zero-copy path below.
	buf := make([]byte, 5)
	if n, _, err := vfs.ReadFSInto(s, a.Handle, 0, buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("ReadFSInto through shim = %q, %v", buf[:n], err)
	}
	if rec.readInto != 1 || rec.read != 0 {
		t.Errorf("below the shim: ReadInto %d, Read %d; want the ReaderInto path only", rec.readInto, rec.read)
	}
	if err := vfs.SyncFS(s); err != nil || rec.sync != 1 {
		t.Errorf("COMMIT barrier through shim: err %v, syncs below %d, want 1", err, rec.sync)
	}

	dev := &recDev{BlockDevice: ffs.NewMemDevice(ffs.DefaultBlockSize, 1<<12, ffs.DiskModel{})}
	shim := &devShim{next: dev}
	fs2, err := ffs.New(ffs.Config{Device: shim})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fs2.Create(fs2.Root(), "g", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Write(a2.Handle, 0, make([]byte, 3*ffs.DefaultBlockSize)); err != nil {
		t.Fatal(err)
	}
	before := dev.syncs
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	if dev.syncs <= before || shim.syncs.Load() == 0 {
		t.Errorf("ffs.Sync through the device shim reached the device %d times", dev.syncs-before)
	}
	if shim.writes.Load() == 0 || shim.bytesWritten.Load() < 3*ffs.DefaultBlockSize {
		t.Errorf("device shim counted %d writes, %d bytes", shim.writes.Load(), shim.bytesWritten.Load())
	}
	seeks := shim.seeks.Load()
	blk := make([]byte, ffs.DefaultBlockSize)
	for _, bn := range []uint32{100, 101, 102, 7} { // one jump in, a run, one jump back
		if err := shim.ReadBlock(bn, blk); err != nil {
			t.Fatal(err)
		}
	}
	if got := shim.seeks.Load() - seeks; got != 2 {
		t.Errorf("seeks over 100,101,102,7 = %d, want 2", got)
	}
}

func TestTreeContentNamesItsVersion(t *testing.T) {
	tw := newTree(7, true).(*tree)
	b := tw.content("/tree/d01/f002.c", 2000, 42)
	if v, ok := parseVersion(b, "/tree/d01/f002.c"); !ok || v != 42 {
		t.Fatalf("parseVersion = %d, %v", v, ok)
	}
	if _, ok := parseVersion(b, "/tree/d01/f003.c"); ok {
		t.Error("a header naming another path must not parse")
	}
	torn := append(tw.content("/tree/d01/f002.c", 2000, 43)[:1000], b[1000:]...)
	if v, _ := parseVersion(torn, "/tree/d01/f002.c"); v != 43 {
		t.Fatal("torn copy should carry the newer header")
	}
	if string(torn) == string(tw.content("/tree/d01/f002.c", 2000, 43)) {
		t.Error("a torn write must not equal the version its header names")
	}
}

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func units(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsQuick runs every workload on small inputs, untraced and
// traced, and requires every output check and integrity gate to pass and
// the JSON line to carry exactly the metrics BENCHMARK.json names.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 600 * time.Millisecond, trace: trace,
				quick: true, windows: 2, traceDir: t.TempDir()}
			res, err := bench(context.Background(), cfg, io.Discard, measure)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := units(spec.EndToEnd)
			if trace {
				want = units(spec.PerLayer)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for n, u := range want {
				if m, ok := res.Metrics[n]; !ok || m.Unit != u {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, trace, n, m, ok, u)
				}
			}
		}
	}
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
