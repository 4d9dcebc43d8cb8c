package main

// The metric names are the benchmark's contract with every later
// change: BENCHMARK.json lists exactly these (a test holds the two
// together), and a change is read on them and on nothing else.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd are the gated metrics, defined on every workload. The share
// of failed ops is not among them because it is 0 at every good commit
// and a ratio to 0 says nothing: it is reported beside them as
// attempted/failed, and any failure makes the run incorrect.
var endToEnd = []metricDef{
	{"op_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the ungated metrics of a traced run. The prefix is the
// layer. Span and counter metrics describe the workload that was run
// and read 0 where the workload does not exercise them; probe metrics
// (see bench/layers) are the same whatever the workload.
var perLayer = []metricDef{
	// mpj: the API boundary, from spans around the workload's calls.
	{Name: "mpj.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "mpj.send_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "mpj.recv_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "mpj.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "mpj.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "mpj.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "mpj.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	// core: pack/unpack (peel) and collectives (spans, exact counter).
	{Name: "core.pack_self_us_8B", Unit: "us", Better: "lower"},
	{Name: "core.pack_self_us_1MiB", Unit: "us", Better: "lower"},
	{Name: "core.sendbuffer_self_us_8B", Unit: "us", Better: "lower"},
	{Name: "core.sendbuffer_self_us_1MiB", Unit: "us", Better: "lower"},
	{Name: "core.bcast_1MiB_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.allreduce_256KiB_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.barrier_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.coll_segs_sent_per_op", Unit: "count", Better: "lower"},
	// mpjbuf: direct Write/Commit/Read loops.
	{Name: "mpjbuf.write_doubles_1MiB_us", Unit: "us", Better: "lower"},
	{Name: "mpjbuf.read_doubles_1MiB_us", Unit: "us", Better: "lower"},
	{Name: "mpjbuf.write_read_8B_ns", Unit: "ns", Better: "lower"},
	{Name: "mpjbuf.allocs_per_pack", Unit: "count", Better: "lower"},
	// mpjdev: rank-level requests (peel) and Waitany (span).
	{Name: "mpjdev.self_us_8B", Unit: "us", Better: "lower"},
	{Name: "mpjdev.self_us_1MiB", Unit: "us", Better: "lower"},
	{Name: "mpjdev.waitany_p50_us", Unit: "us", Better: "lower"},
	// devcore: the progress core alone, and how often it leaves the
	// posted fast path in this workload.
	{Name: "devcore.post_match_complete_ns", Unit: "ns", Better: "lower"},
	{Name: "devcore.unexpected_park_match_ns", Unit: "ns", Better: "lower"},
	{Name: "devcore.pool_get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "devcore.unexpected_share", Unit: "ratio", Better: "lower"},
	// match and cqueue: the data structures under devcore.
	{Name: "match.specific_add_match_ns", Unit: "ns", Better: "lower"},
	{Name: "match.wildcard_add_match_ns", Unit: "ns", Better: "lower"},
	{Name: "match.depth650_match_ns", Unit: "ns", Better: "lower"},
	{Name: "cqueue.push_peek_collect_ns", Unit: "ns", Better: "lower"},
	// niodev: device over TCP minus the bare connection (peel), and
	// its protocol and send-engine counters in this workload.
	{Name: "niodev.self_us_8B", Unit: "us", Better: "lower"},
	{Name: "niodev.self_us_1MiB", Unit: "us", Better: "lower"},
	{Name: "niodev.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "niodev.eager_per_op", Unit: "count", Better: "lower"},
	{Name: "niodev.rndv_per_op", Unit: "count", Better: "lower"},
	{Name: "niodev.frames_per_batch", Unit: "count", Better: "higher"},
	{Name: "niodev.bytes_per_batch", Unit: "B", Better: "higher"},
	// smpdev, hybriddev: device-level ping-pong.
	{Name: "smpdev.pingpong_8B_us", Unit: "us", Better: "lower"},
	{Name: "smpdev.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "hybriddev.local_pingpong_8B_us", Unit: "us", Better: "lower"},
	{Name: "hybriddev.remote_pingpong_8B_us", Unit: "us", Better: "lower"},
	// transport: the floor no library change can beat.
	{Name: "transport.tcp_half_rtt_8B_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_half_rtt_1MiB_us", Unit: "us", Better: "lower"},
	{Name: "transport.inproc_half_rtt_8B_us", Unit: "us", Better: "lower"},
	// mpjrt: where set-up time goes.
	{Name: "mpjrt.launch_s", Unit: "s", Better: "lower"},
	{Name: "mpjrt.init_mesh_s", Unit: "s", Better: "lower"},
	{Name: "mpjrt.teardown_s", Unit: "s", Better: "lower"},
	// The ledger's own check: self times over an independently timed
	// top boundary; outside [0.8, 1.25] is the ledger's bug.
	{Name: "layers.reconcile_ratio_8B", Unit: "ratio", Better: "lower"},
	{Name: "layers.reconcile_ratio_1MiB", Unit: "ratio", Better: "lower"},
}
