package bench

// The federation scale-out table: aggregate streaming write throughput
// against 1..N sharded servers. Each server's store sits on a modeled
// disk with Exclusive cost accounting (the device lock is held while
// the modeled transfer elapses), so a single server is genuinely
// device-bound and every added shard adds real spindle bandwidth — the
// property horizontal scale-out claims. Clients route writes to the
// shard owning each file name (consistent hashing of the /data
// subtree), so disjoint working sets spread evenly with no
// coordination between servers.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"discfs/internal/core"
	"discfs/internal/fed"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
)

// FedDiskMBps is the modeled per-server disk bandwidth for the
// scale-out table: slow enough that one server saturates its spindle
// long before the CPU (the stack clears an order of magnitude more
// with a free disk), so the aggregate scales with servers. Note the
// store's metadata traffic — inode, bitmap and indirect-block updates
// around every data block — consumes spindle bandwidth too, so
// effective file throughput sits well under this figure, identically
// at every shard count.
const FedDiskMBps = 32

// FedResult is one scale-out measurement.
type FedResult struct {
	// Servers is the shard count.
	Servers int
	// Writers is the number of concurrent streaming writers.
	Writers int
	// AggregateMBps is total bytes moved over the wall-clock window,
	// including every writer's Sync/COMMIT barrier.
	AggregateMBps float64
}

// FedSetup is a federation of n independent DisCFS servers sharing one
// administrator trust anchor, each on its own modeled disk, each
// exporting the /data shard subtree.
type FedSetup struct {
	n        int
	addrs    []string
	srvs     []*core.Server
	backings []*ffs.FFS // per-shard stores, for ground-truth checks
	userKey  *keynote.KeyPair
	chain    string
}

// NewFedSetup provisions n servers with diskMBps of Exclusive modeled
// disk bandwidth each, pre-creates /data everywhere (as discfsd
// -fed-subtree does), and credentials one user RWX on every shard.
func NewFedSetup(n int, diskMBps int64) (*FedSetup, error) {
	adminKey := keynote.DeterministicKey("fed-bench-admin")
	userKey := keynote.DeterministicKey("fed-bench-user")
	s := &FedSetup{n: n, userKey: userKey}
	for i := 0; i < n; i++ {
		backing, err := ffs.New(ffs.Config{
			BlockSize: 8192,
			NumBlocks: 1 << 16,
			Disk:      ffs.DiskModel{BytesPerSecond: diskMBps << 20, Exclusive: true},
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		if _, err := backing.Mkdir(backing.Root(), "data", 0o755); err != nil {
			s.Close()
			return nil, err
		}
		srv, err := core.NewServer(core.ServerConfig{
			Backing:   backing,
			ServerKey: adminKey,
			CacheSize: 128,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		cred, err := srv.IssueCredential(userKey.Principal, backing.Root().Ino, "RWX",
			fmt.Sprintf("fed bench user, shard %d", i))
		if err != nil {
			srv.Close()
			s.Close()
			return nil, err
		}
		addr, err := srv.Start()
		if err != nil {
			srv.Close()
			s.Close()
			return nil, err
		}
		s.srvs = append(s.srvs, srv)
		s.backings = append(s.backings, backing)
		s.addrs = append(s.addrs, addr)
		s.chain += cred.Source + "\n\n"
	}
	return s, nil
}

// Close tears every server down.
func (s *FedSetup) Close() {
	for _, srv := range s.srvs {
		srv.Close()
	}
}

// Dial attaches a federated client (shard subtree /data) and submits
// the user's credential chain to every shard.
func (s *FedSetup) Dial() (*core.Client, error) {
	c, err := core.Dial(context.Background(), s.addrs[0], s.userKey,
		core.WithServers(s.addrs[1:]...), core.WithShardSubtree("/data"))
	if err != nil {
		return nil, err
	}
	if _, err := c.SubmitCredentialText(context.Background(), s.chain); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// SpreadNames picks `count` file names such that name i lives on shard
// i%n — a disjoint, evenly spread working set. Placement is a pure
// function of (shard count, name), so the picked set matches what the
// servers will actually hold.
func SpreadNames(n, count int) []string {
	table, err := fed.New(fed.Spec{Extra: make([]string, n-1), ShardSubtree: "/data"})
	if err != nil {
		panic(err) // static spec; cannot fail for n >= 1
	}
	names := make([]string, count)
	next := 0
	for i := range names {
		for ; ; next++ {
			cand := fmt.Sprintf("w-%04d.dat", next)
			if table.Owner(cand) == i%n {
				names[i] = cand
				next++
				break
			}
		}
	}
	return names
}

// Aggregate measures total streaming write throughput: writers
// concurrent goroutines, each moving perWriter bytes into its own file
// in /data and Syncing inside the timed window. File names are spread
// round-robin across shards.
func (s *FedSetup) Aggregate(writers int, perWriter int64) (FedResult, error) {
	ctx := context.Background()
	res := FedResult{Servers: s.n, Writers: writers}
	c, err := s.Dial()
	if err != nil {
		return res, err
	}
	defer c.Close()

	names := SpreadNames(s.n, writers)
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i*2654435761 + i>>12)
	}

	// Warm outside the window: create every file, push one write-behind
	// window through it (spinning up flush workers on every shard), then
	// truncate back to empty.
	files := make([]*core.File, writers)
	for i, name := range names {
		f, err := c.Open(ctx, "/data/"+name, os.O_CREATE|os.O_RDWR|os.O_TRUNC)
		if err != nil {
			return res, err
		}
		files[i] = f
		defer f.Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	warm := func(i int) {
		defer wg.Done()
		f := files[i]
		for n := 0; n < 4; n++ {
			if _, err := f.Write(buf[:256<<10]); err != nil {
				errs[i] = err
				return
			}
		}
		if err := f.Sync(); err != nil {
			errs[i] = err
			return
		}
		if err := f.Truncate(0); err != nil {
			errs[i] = err
			return
		}
		if _, err := f.Seek(0, 0); err != nil {
			errs[i] = err
		}
	}
	for i := range files {
		wg.Add(1)
		go warm(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	start := time.Now()
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := files[i]
			for moved := int64(0); moved < perWriter; {
				chunk := int64(len(buf))
				if rem := perWriter - moved; rem < chunk {
					chunk = rem
				}
				if _, err := f.Write(buf[:chunk]); err != nil {
					errs[i] = err
					return
				}
				moved += chunk
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
	return res, nil
}

// RunFed measures the scale-out curve for the given shard counts with
// one fresh federation per point.
func RunFed(serverCounts []int, writers int, perWriter int64) ([]FedResult, error) {
	var out []FedResult
	for _, n := range serverCounts {
		s, err := NewFedSetup(n, FedDiskMBps)
		if err != nil {
			return nil, err
		}
		r, err := s.Aggregate(writers, perWriter)
		s.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: fed %d servers: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}
