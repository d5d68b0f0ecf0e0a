package bench

// The streaming-throughput table: sequential whole-file read and write
// over the full DisCFS stack (secure channel, RPC, credential checks,
// write-behind server) at the negotiated transfer size versus the v2
// 8 KiB baseline. This is the data plane's acceptance measure — the
// negotiated size must deliver a multiple of the baseline's throughput
// because it issues a fraction of the per-operation costs (RPC framing,
// AEAD seals, syscalls, policy checks).

import (
	"context"
	"fmt"
	"os"
	"time"

	"discfs/internal/core"
	"discfs/internal/keynote"
)

// StreamResult is one streaming measurement.
type StreamResult struct {
	// Size is the file size moved, in bytes.
	Size int64
	// Transfer is the negotiated per-RPC payload in effect.
	Transfer int
	// Cached reports whether the client data cache (readahead +
	// write-behind) was on.
	Cached bool
	// WriteMBps is the sequential write throughput, including the
	// Sync/COMMIT durability barrier.
	WriteMBps float64
	// ReadMBps is the sequential read throughput from a cold client
	// (a fresh attach, so every byte crosses the wire).
	ReadMBps float64
}

// StreamSetup is a DisCFS server prepared for streaming measurements.
type StreamSetup struct {
	addr    string
	userKey *keynote.KeyPair
	srv     *core.Server
}

// NewStreamSetup brings up a write-behind DisCFS server (the system's
// fast configuration) with one RWX-credentialed user.
func NewStreamSetup() (*StreamSetup, error) {
	backing, err := ffsStore()
	if err != nil {
		return nil, err
	}
	adminKey := keynote.DeterministicKey("stream-admin")
	userKey := keynote.DeterministicKey("stream-user")
	srv, err := core.NewServer(core.ServerConfig{
		Backing:     backing,
		ServerKey:   adminKey,
		CacheSize:   128,
		WriteBehind: true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := srv.IssueCredential(userKey.Principal, backing.Root().Ino, "RWX", "stream user"); err != nil {
		srv.Close()
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &StreamSetup{addr: addr, userKey: userKey, srv: srv}, nil
}

// Close tears the server down.
func (s *StreamSetup) Close() { s.srv.Close() }

// dial attaches a client at the given proposed transfer size.
func (s *StreamSetup) dial(transfer int, cached bool) (*core.Client, error) {
	opts := []core.ClientOption{core.WithMaxTransfer(transfer)}
	if !cached {
		opts = append(opts, core.WithNoDataCache())
	}
	return core.Dial(context.Background(), s.addr, s.userKey, opts...)
}

// warm spins up the client's flush workers and readahead, and the
// server's write path, against a throwaway file, so that start-up
// happens outside the measured region — steady-state throughput, not
// attach cost, is what the table reports.
func (s *StreamSetup) warm(c *core.Client, transfer int) error {
	ctx := context.Background()
	f, err := c.Open(ctx, fmt.Sprintf("/warm-%d.dat", transfer), os.O_CREATE|os.O_RDWR|os.O_TRUNC)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, transfer)
	for i := 0; i < 9; i++ { // one block per flush worker, and one spare
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return err
	}
	for off := int64(0); ; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			break
		}
	}
	return nil
}

// Stream measures one configuration: a sequential write of size bytes
// (with the Sync barrier inside the timed region) by one client, then a
// sequential read of the file by a freshly attached client, so both
// directions move every byte across the wire.
func (s *StreamSetup) Stream(size int64, transfer int, cached bool) (StreamResult, error) {
	ctx := context.Background()
	res := StreamResult{Size: size, Transfer: transfer, Cached: cached}
	const appChunk = 1 << 20 // application-level write(2) size
	buf := make([]byte, appChunk)
	for i := range buf {
		buf[i] = byte(i*2654435761 + i>>12)
	}
	name := fmt.Sprintf("/stream-%d-%d-%v.dat", size, transfer, cached)

	w, err := s.dial(transfer, cached)
	if err != nil {
		return res, err
	}
	defer w.Close()
	if cached {
		if err := s.warm(w, transfer); err != nil {
			return res, err
		}
	}
	wf, err := w.Open(ctx, name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return res, err
	}
	start := time.Now()
	for off := int64(0); off < size; {
		n := size - off
		if n > appChunk {
			n = appChunk
		}
		if _, err := wf.Write(buf[:n]); err != nil {
			return res, err
		}
		off += n
	}
	if err := wf.Sync(); err != nil {
		return res, err
	}
	res.WriteMBps = mbps(size, time.Since(start))
	if err := wf.Close(); err != nil {
		return res, err
	}

	// Cold reader: a fresh attach so nothing is client-cached.
	r, err := s.dial(transfer, cached)
	if err != nil {
		return res, err
	}
	defer r.Close()
	if cached {
		if err := s.warm(r, transfer); err != nil {
			return res, err
		}
	}
	rf, err := r.Open(ctx, name, os.O_RDONLY)
	if err != nil {
		return res, err
	}
	start = time.Now()
	var total int64
	for {
		n, err := rf.Read(buf)
		total += int64(n)
		if err != nil {
			break
		}
	}
	if total != size {
		return res, fmt.Errorf("bench: stream read %d of %d bytes", total, size)
	}
	res.ReadMBps = mbps(size, time.Since(start))
	return res, rf.Close()
}

func mbps(size int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(size) / (1 << 20) / d.Seconds()
}

// AggregateMBps is the result's aggregate throughput: total bytes moved
// (write + read) over total wall time — the Bonnie-style figure the
// acceptance bound is measured on.
func AggregateMBps(r StreamResult) float64 {
	if r.WriteMBps <= 0 || r.ReadMBps <= 0 {
		return 0
	}
	sz := float64(r.Size) / (1 << 20)
	return 2 * sz / (sz/r.WriteMBps + sz/r.ReadMBps)
}
