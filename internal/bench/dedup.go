package bench

// The dedup table: streaming write throughput through the full stack
// (secure channel, write-behind server) onto a modeled exclusive disk,
// with and without the content-addressed store, at varying duplicate
// fractions. With dedup on, a duplicate chunk never reaches the
// spindle — it is absorbed as an index mutation — so throughput on
// duplicate-heavy streams must rise by a multiple of the write ratio;
// on all-unique streams the layer must cost little more than the
// hashing. The workload models N clients uploading overlapping content:
// the shared segments are identical across writers, so cross-file
// dedup counts too.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"discfs/internal/core"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
)

// DedupDiskMBps is the modeled disk bandwidth for the dedup table —
// the same spindle-bound regime as the federation table, so avoided
// writes translate directly into wall-clock time.
const DedupDiskMBps = 32

// dedupSegment is the workload granule: each writer's stream is a
// sequence of 2 MiB segments, each either drawn from a small shared
// pool (duplicate) or freshly random (unique).
const dedupSegment = 2 << 20

// DedupResult is one dedup-table measurement.
type DedupResult struct {
	// Dedup reports whether the content-addressed layer was stacked.
	Dedup bool
	// DupPct is the duplicate fraction of the stream, in percent.
	DupPct int
	// Writers is the number of concurrent streaming writers.
	Writers int
	// AggregateMBps is total logical bytes written over the wall-clock
	// window, including every writer's Sync/COMMIT barrier.
	AggregateMBps float64
	// Chunks, BytesLogical, BytesStored and Hits snapshot the chunk
	// store after the run (zero with Dedup false). BytesLogical over
	// BytesStored is the realized dedup ratio.
	Chunks       int64
	BytesLogical int64
	BytesStored  int64
	Hits         uint64
}

// dedupFill fills buf with bytes derived from seed (cheap splitmix64
// stream — incompressible enough that no two seeds collide a chunk).
func dedupFill(buf []byte, seed uint64) {
	x := seed
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		buf[i] = byte(z)
		buf[i+1] = byte(z >> 8)
		buf[i+2] = byte(z >> 16)
		buf[i+3] = byte(z >> 24)
		buf[i+4] = byte(z >> 32)
		buf[i+5] = byte(z >> 40)
		buf[i+6] = byte(z >> 48)
		buf[i+7] = byte(z >> 56)
	}
}

// RunDedupOne measures one configuration: writers concurrent clients
// each streaming perWriter bytes (dupPct percent of whose segments come
// from a pool shared by all writers) into its own file on one
// write-behind server over a DedupDiskMBps exclusive modeled disk, with
// the content-addressed layer stacked iff dedupOn.
func RunDedupOne(dedupOn bool, dupPct, writers int, perWriter int64) (DedupResult, error) {
	res := DedupResult{Dedup: dedupOn, DupPct: dupPct, Writers: writers}
	backing, err := ffs.New(ffs.Config{
		BlockSize: 8192,
		NumBlocks: 1 << 16,
		Disk:      ffs.DiskModel{BytesPerSecond: DedupDiskMBps << 20, Exclusive: true},
	})
	if err != nil {
		return res, err
	}
	adminKey := keynote.DeterministicKey("dedup-bench-admin")
	userKey := keynote.DeterministicKey("dedup-bench-user")
	srv, err := core.NewServer(core.ServerConfig{
		Backing:     backing,
		ServerKey:   adminKey,
		CacheSize:   128,
		WriteBehind: true,
		Dedup:       dedupOn,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	if _, err := srv.IssueCredential(userKey.Principal, backing.Root().Ino, "RWX", "dedup bench user"); err != nil {
		return res, err
	}
	addr, err := srv.Start()
	if err != nil {
		return res, err
	}

	ctx := context.Background()
	c, err := core.Dial(ctx, addr, userKey)
	if err != nil {
		return res, err
	}
	defer c.Close()

	// The shared pool: segments every writer repeats. Deterministic, so
	// re-running the table measures the same stream.
	shared := make([][]byte, 2)
	for i := range shared {
		shared[i] = make([]byte, dedupSegment)
		dedupFill(shared[i], uint64(0xD0D0+i))
	}

	// Warm outside the window: open every file and push one small write
	// through it (spins up flush workers, committers and the chunker's
	// hash workers), then truncate back.
	files := make([]*core.File, writers)
	for i := range files {
		f, err := c.Open(ctx, fmt.Sprintf("/dedup-w%d.dat", i), os.O_CREATE|os.O_RDWR|os.O_TRUNC)
		if err != nil {
			return res, err
		}
		files[i] = f
		defer f.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := files[i]
			if _, err := f.Write(shared[0][:256<<10]); err != nil {
				errs[i] = err
				return
			}
			if err := f.Sync(); err != nil {
				errs[i] = err
				return
			}
			if err := f.Truncate(0); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = f.Seek(0, 0)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	segs := int((perWriter + dedupSegment - 1) / dedupSegment)
	start := time.Now()
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := files[i]
			unique := make([]byte, dedupSegment)
			for s := 0; s < segs; s++ {
				seg := unique
				// Spread duplicate segments evenly through the stream:
				// segment s is a duplicate iff its percent position moves
				// past another dupPct step.
				if (s*dupPct)/100 != ((s+1)*dupPct)/100 || dupPct == 100 {
					seg = shared[s%len(shared)]
				} else {
					dedupFill(unique, uint64(i)<<32|uint64(s))
				}
				n := perWriter - int64(s)*dedupSegment
				if n > dedupSegment {
					n = dedupSegment
				}
				if _, err := f.Write(seg[:n]); err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = f.Sync()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	total := float64(perWriter) * float64(writers)
	res.AggregateMBps = total / (1 << 20) / elapsed.Seconds()
	st := srv.Stats()
	res.Chunks = st.DedupChunks
	res.BytesLogical = st.DedupBytesLogical
	res.BytesStored = st.DedupBytesStored
	res.Hits = st.DedupHits
	return res, nil
}

// RunDedup measures the dedup table: the non-dedup baseline on the
// duplicate-heavy stream, then the dedup layer at each duplicate
// fraction. One fresh server per row.
func RunDedup(dupPcts []int, writers int, perWriter int64) ([]DedupResult, error) {
	base, err := RunDedupOne(false, dupPcts[len(dupPcts)-1], writers, perWriter)
	if err != nil {
		return nil, fmt.Errorf("bench: dedup baseline: %w", err)
	}
	out := []DedupResult{base}
	for _, pct := range dupPcts {
		r, err := RunDedupOne(true, pct, writers, perWriter)
		if err != nil {
			return nil, fmt.Errorf("bench: dedup %d%%: %w", pct, err)
		}
		out = append(out, r)
	}
	return out, nil
}
