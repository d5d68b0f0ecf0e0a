package core

// Concurrency stress harness for the client-side data cache: many
// goroutines hammer one Client (and two Clients hammer one server) with
// mixed Read/Write/Seek/Sync/Close ops while an in-memory model tracks
// what every byte must be. Run with -race (the CI race job does).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/vfs"
)

// regionSize is deliberately not block-aligned, so adjacent workers
// share cache blocks and every write exercises the read-modify-write
// and partial-extent paths.
const regionSize = 12345

// fillPattern writes a deterministic byte pattern for (worker, version)
// into dst.
func fillPattern(dst []byte, worker, version, off int) {
	for i := range dst {
		dst[i] = byte(worker*31 + version*7 + off + i)
	}
}

// stressWorker drives one region of the shared file through its own
// File handle, checking every read against model (the region's current
// expected content, updated in place — it carries across rounds).
// Within a worker operations are sequential, and regions are disjoint,
// so the model is exact despite cross-worker concurrency.
func stressWorker(c *Client, path string, worker, ops int, seed int64, model []byte) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	base := int64(worker * regionSize)
	version := 0

	f, err := c.Open(ctx, path, os.O_RDWR)
	if err != nil {
		return fmt.Errorf("worker %d: open: %w", worker, err)
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // positioned write of a random span
			off := rng.Intn(regionSize)
			n := rng.Intn(regionSize-off)/4 + 1
			version++
			fillPattern(model[off:off+n], worker, version, off)
			if _, err := f.WriteAt(model[off:off+n], base+int64(off)); err != nil {
				return fmt.Errorf("worker %d op %d: WriteAt: %w", worker, op, err)
			}
		case k < 7: // positioned read-back of a random span
			off := rng.Intn(regionSize)
			n := rng.Intn(regionSize-off) + 1
			buf := make([]byte, n)
			m, err := f.ReadAt(buf, base+int64(off))
			if err != nil && err != io.EOF {
				return fmt.Errorf("worker %d op %d: ReadAt: %w", worker, op, err)
			}
			// Bytes past the current end-of-file read short; what did
			// arrive must match the model exactly (read-your-writes).
			if !bytes.Equal(buf[:m], model[off:off+m]) {
				d := 0
				for d < m && buf[d] == model[off+d] {
					d++
				}
				abs := int(base) + off + d
				return fmt.Errorf("worker %d op %d: ReadAt(%d,%d) mismatch at region byte %d (abs %d, block %d): got %d want %d",
					worker, op, off, n, off+d, abs, abs/8192, buf[d], model[off+d])
			}
		case k < 8: // cursor I/O: seek into the region, write then read back
			off := rng.Intn(regionSize - 64)
			if _, err := f.Seek(base+int64(off), io.SeekStart); err != nil {
				return fmt.Errorf("worker %d op %d: Seek: %w", worker, op, err)
			}
			version++
			fillPattern(model[off:off+32], worker, version, off)
			if _, err := f.Write(model[off : off+32]); err != nil {
				return fmt.Errorf("worker %d op %d: Write: %w", worker, op, err)
			}
			if _, err := f.Seek(-32, io.SeekCurrent); err != nil {
				return fmt.Errorf("worker %d op %d: Seek back: %w", worker, op, err)
			}
			buf := make([]byte, 32)
			if _, err := io.ReadFull(f, buf); err != nil {
				return fmt.Errorf("worker %d op %d: Read: %w", worker, op, err)
			}
			if !bytes.Equal(buf, model[off:off+32]) {
				return fmt.Errorf("worker %d op %d: cursor read mismatch", worker, op)
			}
		case k < 9: // barrier
			if err := f.Sync(); err != nil {
				return fmt.Errorf("worker %d op %d: Sync: %w", worker, op, err)
			}
		default: // close and reopen (close-to-open within one client)
			if err := f.Close(); err != nil {
				return fmt.Errorf("worker %d op %d: Close: %w", worker, op, err)
			}
			f, err = c.Open(ctx, path, os.O_RDWR)
			if err != nil {
				return fmt.Errorf("worker %d op %d: reopen: %w", worker, op, err)
			}
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("worker %d: final close: %w", worker, err)
	}
	f = nil
	return nil
}

// runWorkers fans stressWorker out over the regions [first, first+n).
func runWorkers(t *testing.T, c *Client, path string, first, n, ops int, seedBase int64, models [][]byte) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		w := first + i
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := stressWorker(c, path, w, ops, seedBase+int64(w), models[w]); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// verifyRegions opens the file on c and checks the regions
// [first, first+len(models)) against their models.
func verifyRegions(t *testing.T, c *Client, path string, first int, models [][]byte) {
	t.Helper()
	ctx := context.Background()
	f, err := c.Open(ctx, path, os.O_RDONLY)
	if err != nil {
		t.Fatalf("verify open: %v", err)
	}
	defer f.Close()
	for i, model := range models {
		w := first + i
		got := make([]byte, len(model))
		n, err := f.ReadAt(got, int64(w*regionSize))
		if err != nil && err != io.EOF {
			t.Fatalf("verify region %d: %v", w, err)
		}
		// The file may end inside the last written region; unread tail
		// bytes must then be zero in the model.
		if !bytes.Equal(got[:n], model[:n]) {
			d := 0
			for d < n && got[d] == model[d] {
				d++
			}
			t.Fatalf("region %d differs at byte %d: got %d want %d", w, d, got[d], model[d])
		}
		for _, b := range model[n:] {
			if b != 0 {
				t.Fatalf("region %d: model has data past EOF", w)
			}
		}
	}
}

// stressModes are the server configurations every stress test runs
// under: classic synchronous writes, the write-behind pipeline, and
// write-behind over the content-addressed dedup store (whose chunker,
// refcounting and open-chunk tail buffer must survive the same
// concurrent read-modify-write traffic).
var stressModes = []struct {
	name      string
	wb, dedup bool
}{
	{"syncWrites", false, false},
	{"serverWriteBehind", true, false},
	{"serverWriteBehindDedup", true, true},
}

func stressServer(t *testing.T, wb, dedup bool) string {
	t.Helper()
	serverKey := keynote.DeterministicKey("stress-admin")
	_, addr := testServer(t, ServerConfig{ServerKey: serverKey, WriteBehind: wb, Dedup: dedup})
	return addr
}

func newModels(n int) [][]byte {
	models := make([][]byte, n)
	for i := range models {
		models[i] = make([]byte, regionSize)
	}
	return models
}

// TestStressSingleClient hammers one cached client with concurrent
// mixed operations from eight workers sharing one file (and therefore
// one handle cache), then verifies every byte — through the writing
// client and through a second, independent client after close. It runs
// twice: against the classic synchronous-write server and against the
// server-side write-behind pipeline (unstable WRITE + COMMIT).
func TestStressSingleClient(t *testing.T) {
	for _, mode := range stressModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			addr := stressServer(t, mode.wb, mode.dedup)
			c := dialAs(t, addr, "stress-admin")

			const workers, ops = 8, 150
			if _, _, err := c.WriteFile(ctx, "/stress.dat", nil); err != nil {
				t.Fatal(err)
			}
			models := newModels(workers)
			runWorkers(t, c, "/stress.dat", 0, workers, ops, 1000, models)

			// Within the writing client the cache must agree...
			verifyRegions(t, c, "/stress.dat", 0, models)
			// ...and a fresh client sees the same bytes after close-to-open.
			c2 := dialAs(t, addr, "stress-admin")
			verifyRegions(t, c2, "/stress.dat", 0, models)
		})
	}
}

// TestStressTwoClientsSharedServer alternates two clients over one
// shared file in write-close / open-verify rounds: everything a client
// wrote and closed must be visible to the other client's next open
// (close-to-open across clients), with both clients running concurrent
// workers internally.
func TestStressTwoClientsSharedServer(t *testing.T) {
	for _, mode := range stressModes {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			addr := stressServer(t, mode.wb, mode.dedup)
			a := dialAs(t, addr, "stress-admin")
			b := dialAs(t, addr, "stress-admin")

			const perClient, ops, rounds = 4, 60, 3
			if _, _, err := a.WriteFile(ctx, "/shared.dat", nil); err != nil {
				t.Fatal(err)
			}
			models := newModels(2 * perClient)

			for round := 0; round < rounds; round++ {
				// Client A owns regions 0..3, client B regions 4..7. New seeds
				// each round rewrite random spans over the surviving content.
				runWorkers(t, a, "/shared.dat", 0, perClient, ops, int64(9000+100*round), models)
				runWorkers(t, b, "/shared.dat", perClient, perClient, ops, int64(9500+100*round), models)

				// Cross-client visibility after close: B checks A's half, A
				// checks B's half, and a third client checks everything.
				verifyRegions(t, b, "/shared.dat", 0, models[:perClient])
				verifyRegions(t, a, "/shared.dat", perClient, models[perClient:])
				c := dialAs(t, addr, "stress-admin")
				verifyRegions(t, c, "/shared.dat", 0, models)
			}
		})
	}
}

// TestCommitVerifierReplay exercises the NFSv3-style restart protocol:
// the server's write-behind layer "reboots" (new boot verifier, every
// buffered-but-uncommitted write dropped) between a client's flushes
// and its COMMIT. The client must detect the verifier change, re-dirty
// its unstable blocks, and replay them — no acknowledged Sync may lose
// data.
func TestCommitVerifierReplay(t *testing.T) {
	ctx := context.Background()
	serverKey := keynote.DeterministicKey("stress-admin")
	srv, addr := testServer(t, ServerConfig{ServerKey: serverKey, WriteBehind: true})
	c := dialAs(t, addr, "stress-admin")

	f, err := c.Open(ctx, "/replay.dat", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	// First barrier records the server's boot verifier.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xAA}, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Write a larger span; it stays dirty in one cache block until the
	// barrier flushes it.
	want := make([]byte, 10*8192)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Server "restart": new verifier, buffered-but-uncommitted writes
	// lost. The next barrier's WRITE lands after it, but the COMMIT
	// still reports a verifier other than the one the file was opened
	// under, so the client replays.
	srv.gather.Reboot(true)
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync with replay: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh client must read every byte back.
	c2 := dialAs(t, addr, "stress-admin")
	got, err := c2.ReadFile(ctx, "/replay.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		d := 0
		for d < len(got) && d < len(want) && got[d] == want[d] {
			d++
		}
		t.Fatalf("replayed content differs at byte %d of %d (got len %d)", d, len(want), len(got))
	}
	// The second Sync must have observed the new verifier and replayed
	// rather than silently acknowledging lost data.
	st := srv.Stats()
	if st.Commits < 2 {
		t.Errorf("commits = %d, want >= 2", st.Commits)
	}
}

// gatedWriteFS parks every backing Write until open is closed; entered
// is closed when the first Write arrives.
type gatedWriteFS struct {
	vfs.FS
	entered, open chan struct{}
	once          sync.Once
}

func (g *gatedWriteFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	return g.FS.Write(h, off, data)
}

// gatedServer starts a write-behind server over a gatedWriteFS.
func gatedServer(t *testing.T) (*Server, string, *gatedWriteFS) {
	t.Helper()
	under, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 16384})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedWriteFS{FS: under, entered: make(chan struct{}), open: make(chan struct{})}
	srv, addr := testServer(t, ServerConfig{
		Backing:     gate,
		ServerKey:   keynote.DeterministicKey("stress-admin"),
		WriteBehind: true,
	})
	return srv, addr, gate
}

// rebootWithAckedWrites waits until the first WRITE parks in the gated
// backing store and the gather layer has acknowledged n WRITEs, then
// restarts the gather layer — dropping the acknowledged WRITEs still
// queued — and opens the gate.
func rebootWithAckedWrites(t *testing.T, srv *Server, gate *gatedWriteFS, n uint64) {
	t.Helper()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no WRITE reached the backing store")
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.gather.Stats().WritesGathered < n {
		if time.Now().After(deadline) {
			t.Fatalf("server acknowledged %d of %d WRITEs", srv.gather.Stats().WritesGathered, n)
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.gather.Stats(); st.QueueDepth == 0 {
		t.Fatalf("before restart: %+v, want acknowledged WRITEs queued", st)
	}
	srv.gather.Reboot(true)
	close(gate.open)
}

// checkReplayed reads path through a fresh client and compares it with
// want, naming the first differing byte.
func checkReplayed(t *testing.T, addr, path string, want []byte) {
	t.Helper()
	got, err := dialAs(t, addr, "stress-admin").ReadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		d := 0
		for d < len(got) && d < len(want) && got[d] == want[d] {
			d++
		}
		t.Fatalf("replayed content differs at byte %d of %d (got len %d)", d, len(want), len(got))
	}
}

// replayPayload is three full transfers of a deterministic pattern:
// each moves as one WRITE. The first fills a gather run and parks in
// the gated backing store; the others stay queued behind it.
func replayPayload(c *Client) []byte {
	want := make([]byte, 3*c.MaxTransfer())
	for i := range want {
		want[i] = byte(i*7 + i>>12)
	}
	return want
}

// TestCommitVerifierReplayFirstWrite: the server restarts between a
// file's first WRITEs and its first COMMIT, dropping WRITEs it already
// acknowledged. The file's first COMMIT must still see a moved verifier
// and replay them.
func TestCommitVerifierReplayFirstWrite(t *testing.T) {
	ctx := context.Background()
	srv, addr, gate := gatedServer(t)
	c := dialAs(t, addr, "stress-admin")

	f, err := c.Open(ctx, "/first.dat", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	want := replayPayload(c)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	rebootWithAckedWrites(t, srv, gate, 3)
	if err := f.Close(); err != nil {
		t.Fatalf("Close with replay: %v", err)
	}
	checkReplayed(t, addr, "/first.dat", want)
}

// TestCommitVerifierReplayWriteFile: WriteFile's COMMIT reports the
// verifier of a server that restarted after acknowledging its WRITEs.
// WriteFile must rewrite the data rather than report success over the
// lost WRITEs.
func TestCommitVerifierReplayWriteFile(t *testing.T) {
	ctx := context.Background()
	srv, addr, gate := gatedServer(t)
	c := dialAs(t, addr, "stress-admin")

	want := replayPayload(c)
	done := make(chan error, 1)
	go func() {
		_, _, err := c.WriteFile(ctx, "/whole.dat", want)
		done <- err
	}()
	rebootWithAckedWrites(t, srv, gate, 3)
	if err := <-done; err != nil {
		t.Fatalf("WriteFile with replay: %v", err)
	}
	checkReplayed(t, addr, "/whole.dat", want)
}

// TestCommitVerifierReplayUncached: without the data cache a File keeps
// no copy of what it wrote, so it cannot replay; a COMMIT reporting a
// restarted server must fail the barrier with ErrIO instead of
// acknowledging lost WRITEs.
func TestCommitVerifierReplayUncached(t *testing.T) {
	ctx := context.Background()
	srv, addr, gate := gatedServer(t)
	c := dialAsWith(t, addr, "stress-admin", WithNoDataCache())

	f, err := c.Open(ctx, "/uncached.dat", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(replayPayload(c)); err != nil {
		t.Fatal(err)
	}
	rebootWithAckedWrites(t, srv, gate, 3)
	if err := f.Close(); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("Close after losing acknowledged WRITEs = %v, want ErrIO", err)
	}
}

// TestCommitVerifierFromAttach: the attach handshake carries the
// server's boot verifier, and the data cache starts from it, so a
// file's Close issues exactly one COMMIT — no baseline probe.
func TestCommitVerifierFromAttach(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{WriteBehind: true})
	c := dialAs(t, addr, "test-admin")
	if got, want := c.primary().link.Load().verf, srv.Verifier(); got != want || want == 0 {
		t.Fatalf("attach verifier %#x, server verifier %#x", got, want)
	}
	f, err := c.Open(ctx, "/once.dat", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0x5A}, 3*8192)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().Commits; n != 1 {
		t.Errorf("COMMITs for one Close = %d, want 1", n)
	}
}
