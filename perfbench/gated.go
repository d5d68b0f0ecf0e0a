package main

// gatedLayer are the per-layer metrics a traced run puts in its JSON
// line; BENCHMARK.json lists the same names under per_layer. Each is
// defined on every workload. Call timings that some workload never
// makes (core.write_ms on onboard, nfs.COMMIT.service_ms on onboard, …)
// are printed in the report but left out here, so no listed time reads
// a constant zero.
var gatedLayer = map[string]bool{}

var gatedLayerNames = []string{
	"core.dial_ms", "core.submit_ms", "core.open_ms", "core.read_ms", "core.close_ms",
	"core.rpc_per_op", "core.rpc_ms", "core.datacache_hit_ratio",
	"nfs.READ.calls", "nfs.READ.service_ms",
	"nfs.WRITE.calls", "nfs.COMMIT.calls",
	"nfs.LOOKUP.calls", "nfs.LOOKUP.service_ms",
	"nfs.GETATTR.calls", "nfs.GETATTR.service_ms",
	"nfs.READDIRPLUS.calls", "nfs.CREATE.calls", "nfs.REMOVE.calls", "nfs.SETATTR.calls",
	"nfs.errors",
	"wire.rpc_gap_ms", "wire.bytes_per_logical",
	"secchan.handshakes", "secchan.rejected", "sunrpc.requests", "sunrpc.queue_full",
	"keynote.evaluations_per_op", "keynote.credentials", "cache.decision_hit_ratio",
	"core.path_cache_hit_ratio", "audit.dropped",
	"writegather.gather_ratio", "writegather.commits",
	"dedup.hits", "dedup.stored_per_logical", "dedup.chunk_cache_hit_ratio", "dedup.gc_bytes",
	"cfs.calls", "cfs.busy_ms", "cfs.self_ms",
	"ffs.calls", "ffs.busy_ms", "ffs.self_ms", "ffs.bytes_written", "ffs.bytes_read",
	"device.block_reads", "device.block_writes", "device.syncs", "device.seeks",
	"device.bytes_written_per_logical", "device.busy_ms",
	"bufpool.miss_ratio", "process.cpu_ms_per_op", "process.alloc_bytes_per_op", "process.gc_cycles",
	"trace.overhead.ops_per_s", "trace.overhead.MBps", "trace.overhead.p50_ms", "trace.overhead.p99_ms",
}

func init() {
	for _, n := range gatedLayerNames {
		gatedLayer[n] = true
	}
}
