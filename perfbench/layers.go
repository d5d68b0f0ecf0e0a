package main

import (
	"bufio"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/core"
	"discfs/internal/dedup"
	dmetrics "discfs/internal/metrics"
)

// nfsProcs are the NFS procedures the per-layer table breaks out, as the
// server labels them.
var nfsProcs = []string{"read", "write", "commit", "lookup", "getattr", "readdirplus", "create", "remove", "setattr"}

// scrapeText reads a registry's text exposition into series → value
// ("name{labels}" keys, "# " comment lines skipped).
func scrapeText(reg *dmetrics.Registry) map[string]float64 {
	var b strings.Builder
	_ = reg.WriteText(&b) // a strings.Builder never fails
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sumSeries adds every series of family name (any labels).
func sumSeries(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// scrape folds a client's RPC counters into the tracer before the client
// closes: clients come and go, the tracer keeps the total.
func (t *tracer) scrape(c *core.Client) {
	if t == nil {
		return
	}
	m := scrapeText(c.Metrics())
	t.mu.Lock()
	t.rpcs += sumSeries(m, "discfs_client_shard_requests_total")
	t.rpcSeconds += sumSeries(m, "discfs_client_shard_latency_seconds_sum")
	t.mu.Unlock()
}

// snapshot is every counter the per-layer table differences.
type snapshot struct {
	server           map[string]float64
	stats            core.Stats
	dedup            dedup.Stats
	pool             bufpool.PoolStats
	dcHits, dcMisses uint64
	cpu              time.Duration
	allocBytes, gcs  uint64
	wire             int64

	cfsCalls, cfsBusy, ffsCalls, ffsBusy   int64
	ffsRead, ffsWritten                    int64
	devReads, devWrites, devSyncs, devSeek int64
	devWritten, devBusy                    int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(st *stack) snapshot {
	s := snapshot{
		server: scrapeText(st.srv.Metrics()),
		stats:  st.srv.Stats(),
		dedup:  st.dedup.Stats(),
		pool:   bufpool.Stats(),
		cpu:    processCPU(),
	}
	s.dcHits, s.dcMisses = core.DataCacheStats()
	rm := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rm)
	s.allocBytes, s.gcs = rm[0].Value.Uint64(), rm[1].Value.Uint64()
	if st.wire != nil {
		s.wire = st.wire.bytes()
	}
	if c := st.cfsShim; c != nil {
		s.cfsCalls, s.cfsBusy = c.stat.calls.Load(), c.stat.busyNs.Load()
	}
	if f := st.ffsShim; f != nil {
		s.ffsCalls, s.ffsBusy = f.stat.calls.Load(), f.stat.busyNs.Load()
		s.ffsRead, s.ffsWritten = f.bytesRead.Load(), f.bytesWritten.Load()
	}
	if d := st.devShim; d != nil {
		s.devReads, s.devWrites, s.devSyncs, s.devSeek = d.reads.Load(), d.writes.Load(), d.syncs.Load(), d.seeks.Load()
		s.devWritten, s.devBusy = d.bytesWritten.Load(), d.busyNs.Load()
	}
	return s
}

// metric is one named, unit-carrying number of the report.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value, 0 when it is a count or ratio
	Note  string // what the value's base is, for the human report
}

// layerMetrics differences two snapshots of a traced run into the
// per-layer table. ops is the run's completed end-to-end ops.
func layerMetrics(a, b snapshot, tr *tracer, r *runStats) []metric {
	ops := float64(r.attempted.Load() - r.failed.Load())
	written := float64(r.written.Load())
	payload := float64(r.payload.Load())
	d := func(k string) float64 { return b.server[k] - a.server[k] }
	var out []metric
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{Name: name, Value: v, Unit: unit, Note: note})
	}

	// core: benchmark-timed client calls.
	for _, c := range coreCalls {
		l := tr.core[c]
		add("core."+c+"_ms", ratio(l.busyMs(), float64(l.calls.Load())), "ms", "mean per call, n="+strconv.FormatInt(l.calls.Load(), 10))
	}
	tr.mu.Lock()
	rpcs, rpcSec := tr.rpcs, tr.rpcSeconds
	tr.mu.Unlock()
	rpcMs := ratio(rpcSec*1e3, rpcs)
	add("core.rpc_per_op", ratio(rpcs, ops), "count", "client RPCs / completed ops")
	add("core.rpc_ms", rpcMs, "ms", "mean client RPC round trip")
	add("core.datacache_hit_ratio", ratio(float64(b.dcHits-a.dcHits), float64(b.dcHits-a.dcHits+b.dcMisses-a.dcMisses)), "ratio", "block hits / lookups")

	// nfs: server-side service time per procedure.
	var svcCalls, svcSec float64
	for _, p := range nfsProcs {
		calls := d(`discfs_nfs_latency_seconds_count{proc="` + p + `"}`)
		sec := d(`discfs_nfs_latency_seconds_sum{proc="` + p + `"}`)
		add("nfs."+strings.ToUpper(p)+".calls", calls, "count", "")
		add("nfs."+strings.ToUpper(p)+".service_ms", ratio(sec*1e3, calls), "ms", "mean per call")
	}
	for k, v := range b.server {
		if strings.HasPrefix(k, "discfs_nfs_latency_seconds_count{") {
			svcCalls += v - a.server[k]
		} else if strings.HasPrefix(k, "discfs_nfs_latency_seconds_sum{") {
			svcSec += v - a.server[k]
		}
	}
	add("nfs.errors", sumSeries(b.server, "discfs_nfs_errors_total")-sumSeries(a.server, "discfs_nfs_errors_total"), "count", "")

	// wire / secchan / sunrpc.
	add("wire.rpc_gap_ms", rpcMs-ratio(svcSec*1e3, svcCalls), "ms", "client RPC mean - server NFS service mean")
	add("wire.bytes_per_logical", ratio(float64(b.wire-a.wire), payload), "ratio", "socket bytes / file payload bytes")
	add("secchan.handshakes", d("discfs_secchan_handshakes_total"), "count", "")
	add("secchan.rejected", d("discfs_secchan_rejected_total"), "count", "")
	add("sunrpc.requests", d("discfs_rpc_requests_total"), "count", "")
	add("sunrpc.queue_full", d("discfs_rpc_queue_full_total"), "count", "")

	// keynote / cache / audit.
	add("keynote.evaluations_per_op", ratio(float64(b.stats.Queries-a.stats.Queries), ops), "count", "full evaluations / completed ops")
	add("keynote.credentials", float64(b.stats.Credentials), "count", "session size at end")
	hits, misses := float64(b.stats.CacheHits-a.stats.CacheHits), float64(b.stats.CacheMisses-a.stats.CacheMisses)
	add("cache.decision_hit_ratio", ratio(hits, hits+misses), "ratio", "hits / decisions looked up")
	ph, pm := float64(b.stats.PathCacheHits-a.stats.PathCacheHits), float64(b.stats.PathCacheMisses-a.stats.PathCacheMisses)
	add("core.path_cache_hit_ratio", ratio(ph, ph+pm), "ratio", "hits / handle→path resolutions")
	add("audit.dropped", float64(b.stats.AuditDropped-a.stats.AuditDropped), "count", "")

	// writegather.
	add("writegather.gather_ratio", ratio(float64(b.stats.WritesGathered-a.stats.WritesGathered), float64(b.stats.BackendWrites-a.stats.BackendWrites)), "ratio", "WRITEs / backend writes")
	add("writegather.commits", float64(b.stats.Commits-a.stats.Commits), "count", "")

	// dedup.
	add("dedup.hits", float64(b.dedup.Hits-a.dedup.Hits), "count", "")
	add("dedup.stored_per_logical", ratio(float64(b.dedup.BytesStored), float64(b.dedup.BytesLogical)), "ratio", "chunk bytes / manifest bytes at end")
	ch, cm := float64(b.dedup.CacheHits-a.dedup.CacheHits), float64(b.dedup.CacheMisses-a.dedup.CacheMisses)
	add("dedup.chunk_cache_hit_ratio", ratio(ch, ch+cm), "ratio", "hits / chunk lookups")
	add("dedup.gc_bytes", float64(b.dedup.GCBytes-a.dedup.GCBytes), "bytes", "")

	// cfs, ffs, device: shim counters.
	cfsBusy, ffsBusy, devBusy := float64(b.cfsBusy-a.cfsBusy)/1e6, float64(b.ffsBusy-a.ffsBusy)/1e6, float64(b.devBusy-a.devBusy)/1e6
	add("cfs.calls", float64(b.cfsCalls-a.cfsCalls), "count", "")
	add("cfs.busy_ms", cfsBusy, "ms", "summed call time")
	add("cfs.self_ms", selfMs(cfsBusy, ffsBusy), "ms", "cfs busy - ffs busy")
	add("ffs.calls", float64(b.ffsCalls-a.ffsCalls), "count", "")
	add("ffs.busy_ms", ffsBusy, "ms", "summed call time")
	add("ffs.self_ms", selfMs(ffsBusy, devBusy), "ms", "ffs busy - device busy")
	add("ffs.bytes_written", float64(b.ffsWritten-a.ffsWritten), "bytes", "")
	add("ffs.bytes_read", float64(b.ffsRead-a.ffsRead), "bytes", "")
	add("device.block_reads", float64(b.devReads-a.devReads), "count", "")
	add("device.block_writes", float64(b.devWrites-a.devWrites), "count", "")
	add("device.syncs", float64(b.devSyncs-a.devSyncs), "count", "")
	add("device.seeks", float64(b.devSeek-a.devSeek), "count", "non-sequential block accesses")
	add("device.bytes_written_per_logical", ratio(float64(b.devWritten-a.devWritten), written), "ratio", "device bytes written / file bytes written")
	add("device.busy_ms", devBusy, "ms", "summed call time")

	// bufpool / process.
	gets := float64(b.pool.Gets - a.pool.Gets)
	add("bufpool.miss_ratio", ratio(float64(b.pool.Misses-a.pool.Misses), gets), "ratio", "fresh allocations / pooled gets")
	add("process.cpu_ms_per_op", ratio(ms(b.cpu-a.cpu), ops), "ms", "user+sys CPU / completed ops")
	add("process.alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), ops), "bytes", "heap allocation / completed ops")
	add("process.gc_cycles", float64(b.gcs-a.gcs), "count", "")
	return out
}
