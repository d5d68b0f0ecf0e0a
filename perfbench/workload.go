package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named traffic mix. setup runs on a fresh stack and is
// what setup_s times; run drives the stack for d and records into r.
type workload interface {
	setup(ctx context.Context, st *stack) error
	run(ctx context.Context, st *stack, tr *tracer, d time.Duration, r *runStats) error
	// liveBytes is the logical size of every file in the namespace once
	// run returns: the base of stored_per_logical.
	liveBytes() int64
	// teardown closes the clients setup attached.
	teardown()
}

// workloads maps --workload names to constructors. seed feeds every
// generated input; quick shrinks inputs for the package's own tests.
var workloads = map[string]func(seed uint64, quick bool) workload{
	"bulk":    newBulk,
	"tree":    newTree,
	"onboard": newOnboard,
}

// errCheck marks a failure of an output check, as opposed to an error
// the program returned.
var errCheck = errors.New("output check failed")

// runStats is what one run of a workload records. Every op is attempted
// once; a failure is an error or wrong data, and expected denials count
// as correct outcomes.
type runStats struct {
	attempted, failed atomic.Int64
	payload           atomic.Int64 // logical file bytes read + written
	written           atomic.Int64 // logical file bytes written
	elapsed           time.Duration

	mu       sync.Mutex
	lat      map[string]dist // latency samples by class
	firstErr []string
}

func newRunStats() *runStats { return &runStats{lat: make(map[string]dist)} }

func (r *runStats) observe(class string, d time.Duration) {
	r.mu.Lock()
	r.lat[class] = append(r.lat[class], d)
	r.mu.Unlock()
}

// fail counts a failed op and keeps the first few messages for stderr.
func (r *runStats) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.firstErr) < 8 {
		r.firstErr = append(r.firstErr, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *runStats) samples(class string) dist {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lat[class]
}

// fill writes deterministic bytes for (seed, stream) into b.
func fill(b []byte, seed, stream uint64) {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], stream)
	binary.LittleEndian.PutUint64(key[16:], 0x646973636673) // "discfs"
	c := rand.NewChaCha8(key)
	_, _ = c.Read(b) // ChaCha8.Read never fails
}

// rng is a seeded generator for one role of one workload.
func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// readFull reads f until EOF into buf and returns the byte count. buf
// must be larger than the file: filling it is reported as an error, so a
// file that grew past its expected size cannot pass as complete.
func readFull(f io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := f.Read(buf[n:])
		n += m
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	return n, fmt.Errorf("file exceeds %d bytes", len(buf)-1)
}
