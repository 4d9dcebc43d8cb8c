package mpj

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mpj/internal/core"
	"mpj/internal/mpe"
	"mpj/internal/replay"
	"mpj/internal/rma"
	"mpj/internal/telemetry"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// Options configures how a job's processes communicate.
type Options struct {
	// Device selects the communication device: "niodev" (default),
	// "smpdev" or "hybrid" — the product devices. The mxdev and ibisdev
	// paper-comparison devices are selectable only in a program that
	// links them (the repository's tests and paper-figure commands).
	Device string
	// NodeMap assigns ranks to nodes ("0,0,1,1" or "nodeA:2,nodeB:2",
	// see MPJ_NODE_MAP). The hybrid device routes node-local traffic
	// over shared memory, and the collectives switch to node-leader
	// hierarchies when the placement spans several nodes. In RunLocal
	// the placement is simulated — all ranks really share the process —
	// which is how the topology-aware paths are tested and benchmarked.
	// Empty reads MPJ_NODE_MAP; RunLocal then defaults to one node.
	NodeMap string
	// EagerLimit overrides the eager→rendezvous switch point in bytes
	// (niodev, and hybrid's wire path; default 128 KiB, the paper's TCP
	// figure). One-sided transfers size their segments to fit it.
	EagerLimit int
	// ThreadLevel is the requested MPI thread level; the provided
	// level is always ThreadMultiple.
	ThreadLevel ThreadLevel
	// Tracing enables the mpe event-tracing subsystem: every rank
	// records protocol and request-lifecycle events plus latency
	// histograms, and writes `rank-N.trace.json` into TraceDir at
	// finalize. Inspect the output with `go run ./cmd/mpjtrace`.
	// Tracing is also switched on by setting MPJ_TRACE=1 in the
	// environment. When off, the hooks compile down to no-ops.
	Tracing bool
	// TraceDir is the directory per-rank trace files are written to.
	// Empty selects $MPJ_TRACE_DIR, or "mpjtrace-out" if that is unset.
	TraceDir string
	// RecordDir, when non-empty, records every nondeterministic decision
	// each rank makes — wildcard match resolutions, completion-pop
	// order, agreement outcomes and the chaos seed — into per-rank
	// `rank-N.decisions` logs in the directory (created if needed). Also
	// set by MPJ_RECORD. Inspect the logs with
	// `go run ./cmd/mpjtrace -decisions`.
	RecordDir string
	// ReplayDir, when non-empty, replays a previous run from the
	// decision logs in the directory: wildcard receives are narrowed to
	// the recorded source, completion pops are reordered to the logged
	// sequence, and the first departure from the recording fails the job
	// with an error wrapping replay.ErrReplayDiverged. Also set by
	// MPJ_REPLAY. May be combined with RecordDir to write the observed
	// decision log of the replay itself (what `mpjtrace -replay` diffs).
	ReplayDir string
	// MetricsAddr, when non-empty, serves live telemetry over HTTP on
	// the given host:port (":0" picks a free port): /metrics exposes
	// every mpe counter and latency histogram in Prometheus text
	// format, /introspect dumps the progress engine's live state, and
	// /debug/pprof/ serves the Go profiler. Also set by
	// MPJ_METRICS_ADDR. In a RunLocal job one server carries all
	// ranks; in a multi-process job each rank serves its own (mpjrun
	// -metrics aggregates them).
	MetricsAddr string
}

func (o *Options) withDefaults() Options {
	out := Options{ThreadLevel: ThreadMultiple}
	if o != nil {
		out = *o
	}
	if out.Device == "" {
		out.Device = "niodev"
	}
	if out.RecordDir == "" && out.ReplayDir == "" {
		out.RecordDir, out.ReplayDir = replay.DirsFromEnv()
	}
	if !out.Tracing {
		out.Tracing = envTraceOn()
	}
	if out.MetricsAddr == "" {
		out.MetricsAddr = os.Getenv(EnvMetricsAddr)
	}
	if out.TraceDir == "" {
		out.TraceDir = os.Getenv(EnvTraceDir)
	}
	if out.TraceDir == "" {
		out.TraceDir = mpe.DefaultTraceDir
	}
	if out.NodeMap == "" {
		out.NodeMap = os.Getenv(EnvNodeMap)
	}
	return out
}

// WithTracing returns Options that enable event tracing into dir
// (empty dir selects the default directory). Pass the result to
// RunLocalOpts; combine with other options by setting Tracing/TraceDir
// on your own Options value instead.
func WithTracing(dir string) *Options {
	return &Options{Tracing: true, TraceDir: dir}
}

// envTraceOn reports whether MPJ_TRACE requests tracing.
func envTraceOn() bool {
	switch strings.ToLower(os.Getenv(EnvTrace)) {
	case "", "0", "false", "off", "no":
		return false
	}
	return true
}

var localJobCounter atomic.Int64

// RunLocal runs an n-rank job inside the calling process: each rank is
// a goroutine with its own Process handle, wired through the selected
// device (in-memory transport for niodev). This is the SMP scenario
// the paper's thread-safety design targets, and the test harness.
//
// RunLocal returns the first error any rank's body returned, after all
// ranks have finished and finalized.
func RunLocal(n int, body func(p *Process) error) error {
	return RunLocalOpts(n, nil, body)
}

// RunLocalOpts is RunLocal with explicit Options.
func RunLocalOpts(n int, opts *Options, body func(p *Process) error) error {
	if n < 1 {
		return fmt.Errorf("mpj: RunLocal needs at least 1 rank, got %d", n)
	}
	o := opts.withDefaults()
	job := fmt.Sprintf("mpj-local-%d", localJobCounter.Add(1))
	nodeOf, err := xdev.ParseNodeMap(o.NodeMap, n)
	if err != nil {
		return fmt.Errorf("mpj: node map: %w", err)
	}

	dialer := transport.NewInProc(0)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("%s/rank-%d", job, i)
	}

	procs := make([]*Process, n)
	devs := make([]xdev.Device, n)
	tracers := make([]*mpe.Tracer, n)
	sessions := make([]*replay.Session, n)
	initErrs := make([]error, n)
	var initWG sync.WaitGroup
	for i := 0; i < n; i++ {
		initWG.Add(1)
		go func(rank int) {
			defer initWG.Done()
			dev, err := xdev.NewInstance(o.Device)
			if err != nil {
				initErrs[rank] = err
				return
			}
			cfg := xdev.Config{
				Rank: rank, Size: n, Addrs: addrs,
				Dialer: dialer, EagerLimit: o.EagerLimit, Group: job,
				NodeOf: nodeOf, Colocated: true,
			}
			if o.RecordDir != "" || o.ReplayDir != "" {
				sessions[rank], err = replay.Open(replay.Config{
					RecordDir: o.RecordDir, ReplayDir: o.ReplayDir,
					Rank: rank, Size: n, Device: o.Device,
					ChaosSeed: os.Getenv(EnvChaosSeed),
				})
				if err != nil {
					initErrs[rank] = err
					return
				}
				cfg.Replay = sessions[rank]
			}
			var tr *mpe.Tracer
			if o.Tracing {
				tr = mpe.NewTracer(rank, 0)
				cfg.Recorder = tr
			}
			procs[rank], _, initErrs[rank] = core.InitThread(dev, cfg, o.ThreadLevel)
			if initErrs[rank] == nil {
				devs[rank], tracers[rank] = dev, tr
				if tr != nil {
					installTraceHook(procs[rank], tr, dev, o.Device, n, o.TraceDir)
				}
			}
		}(i)
	}
	initWG.Wait()
	for i, err := range initErrs {
		if err != nil {
			for _, p := range procs {
				if p != nil {
					p.Finalize()
				}
			}
			return fmt.Errorf("mpj: rank %d init: %w", i, err)
		}
	}

	// One telemetry server carries every in-process rank; it stays up
	// until all ranks have finalized so late scrapes see final counters.
	if o.MetricsAddr != "" {
		ts := telemetry.NewServer()
		for i := 0; i < n; i++ {
			ts.Register(telemetrySource(i, o.Device, devs[i], tracers[i], sessions[i]))
		}
		if _, err := ts.Start(o.MetricsAddr); err != nil {
			for _, p := range procs {
				p.Finalize()
			}
			return err
		}
		defer ts.Close()
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("mpj: rank %d panicked: %v", rank, r)
				}
			}()
			errs[rank] = body(procs[rank])
		}(i)
	}
	wg.Wait()
	for _, p := range procs {
		p.Finalize()
	}
	// Close the decision logs after the devices have quiesced; a
	// divergence detected anywhere in the run surfaces here even when
	// the rank body swallowed the error.
	var divErr error
	for i, s := range sessions {
		if err := s.Close(); err != nil && divErr == nil {
			divErr = fmt.Errorf("mpj: rank %d: %w", i, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("mpj: rank %d: %w", i, err)
		}
	}
	return divErr
}

// telemetrySource wires a rank's device (and tracer, when tracing)
// into a telemetry.Source for the live endpoints.
func telemetrySource(rank int, device string, dev xdev.Device, tr *mpe.Tracer, sess *replay.Session) telemetry.Source {
	src := telemetry.Source{
		Rank: rank, Device: device,
		Stats: func() mpe.CounterSnapshot { return mpe.CounterSnapshot{} },
	}
	if sess != nil {
		src.Replay = sess.State
	}
	if s, ok := dev.(mpe.StatsSource); ok {
		src.Stats = s.Stats
	}
	if in, ok := dev.(telemetry.Introspector); ok {
		src.Introspect = in.Introspect
	}
	if tr != nil {
		src.SendHist = tr.SendHist
		src.RecvHist = tr.RecvHist
		src.RmaHist = tr.RmaHist
		src.RecoveryHist = tr.RecoveryHist
	}
	src.RMA = func() any {
		ws := rma.DeviceState(dev)
		if len(ws) == 0 {
			return nil
		}
		return ws
	}
	return src
}

// installTraceHook arranges for the rank's trace file to be written
// when the process finalizes. Finalize hooks run after the device has
// shut down, so the tracer is quiescent and the device counters final.
func installTraceHook(p *Process, tr *mpe.Tracer, dev xdev.Device, device string, size int, dir string) {
	p.AddFinalizeHook(func() {
		tf := tr.File()
		tf.Device = device
		tf.Size = size
		if src, ok := dev.(mpe.StatsSource); ok {
			cs := src.Stats()
			tf.Counters = &cs
		}
		if err := mpe.WriteFile(dir, tf); err != nil {
			fmt.Fprintf(os.Stderr, "mpj: rank %d: %v\n", tr.Rank(), err)
		}
	})
}

// Environment variables the library reads: the mpjrun/mpjdaemon
// bootstrap, placement, tracing, telemetry and record/replay. README's
// environment table lists each one. Collective algorithms and segment
// sizes are not among them: the collective size table and the device's
// eager limit decide those (DESIGN.md §8, §9).
const (
	EnvRank   = "MPJ_RANK"
	EnvSize   = "MPJ_SIZE"
	EnvAddrs  = "MPJ_ADDRS"
	EnvDevice = "MPJ_DEVICE"

	// EnvNodeMap carries the job's rank→node placement: a per-rank
	// list ("0,0,1,1") or name:count blocks ("nodeA:2,nodeB:2").
	// mpjrun derives it from the daemon assignment and sets it on
	// every rank. The hybrid device routes node-local peers over
	// shared memory, and the collective layer builds node-leader
	// hierarchies from it. Unset means placement unknown: hybrid
	// degrades to all-wire routing, collectives stay flat.
	EnvNodeMap = "MPJ_NODE_MAP"

	// EnvTrace switches event tracing on for any value other than
	// "", "0", "false", "off" or "no"; EnvTraceDir overrides where the
	// per-rank trace files go.
	EnvTrace    = "MPJ_TRACE"
	EnvTraceDir = "MPJ_TRACE_DIR"

	// EnvMetricsAddr serves live telemetry (Prometheus /metrics,
	// /introspect, /debug/pprof) on the given host:port while the job
	// runs. mpjrun -metrics sets a distinct port per rank and
	// aggregates them.
	EnvMetricsAddr = "MPJ_METRICS_ADDR"

	// EnvRecord names a directory to record per-rank decision logs into
	// (rank-N.decisions: wildcard matches, pop order, hybrid claims,
	// agreement outcomes, chaos seed); EnvReplay names a directory of
	// such logs to replay against, enforcing the recorded outcomes and
	// failing the job on the first divergence. Set both to write the
	// replay's own observed log for diffing (`mpjtrace -replay` does).
	// EnvReplayTimeout bounds, in milliseconds, how long a replaying
	// rank waits for a recorded completion before declaring divergence
	// (default 10000).
	EnvRecord        = replay.EnvRecord
	EnvReplay        = replay.EnvReplay
	EnvReplayTimeout = replay.EnvReplayTimeout

	// EnvChaosSeed is the fault-plan seed of a chaos run. The chaos
	// tests read it; RunLocal and InitFromEnv stamp it into a recorded
	// log's meta header, so a replay under another seed diverges at once.
	EnvChaosSeed = "MPJ_CHAOS_SEED"
)

// InitFromEnv joins the multi-process job described by the MPJ_*
// environment variables that mpjrun/mpjdaemon set when spawning
// processes (paper §IV-D). The transport is real TCP.
func InitFromEnv() (*Process, error) {
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return nil, fmt.Errorf("mpj: bad or missing %s: %w", EnvRank, err)
	}
	size, err := strconv.Atoi(os.Getenv(EnvSize))
	if err != nil {
		return nil, fmt.Errorf("mpj: bad or missing %s: %w", EnvSize, err)
	}
	addrs := strings.Split(os.Getenv(EnvAddrs), ",")
	if len(addrs) != size {
		return nil, fmt.Errorf("mpj: %s lists %d addresses for job size %d", EnvAddrs, len(addrs), size)
	}
	device := os.Getenv(EnvDevice)
	if device == "" {
		device = "niodev"
	}
	dev, err := xdev.NewInstance(device)
	if err != nil {
		return nil, err
	}
	nodeOf, err := xdev.ParseNodeMap(os.Getenv(EnvNodeMap), size)
	if err != nil {
		return nil, fmt.Errorf("mpj: %s: %w", EnvNodeMap, err)
	}
	cfg := xdev.Config{
		Rank: rank, Size: size, Addrs: addrs, Dialer: transport.TCP{},
		NodeOf: nodeOf,
	}
	var sess *replay.Session
	if rec, rep := replay.DirsFromEnv(); rec != "" || rep != "" {
		sess, err = replay.Open(replay.Config{
			RecordDir: rec, ReplayDir: rep,
			Rank: rank, Size: size, Device: device,
			ChaosSeed: os.Getenv(EnvChaosSeed),
		})
		if err != nil {
			return nil, err
		}
		cfg.Replay = sess
	}
	var tr *mpe.Tracer
	if envTraceOn() {
		tr = mpe.NewTracer(rank, 0)
		cfg.Recorder = tr
	}
	p, err := core.Init(dev, cfg)
	if err != nil {
		return nil, err
	}
	if sess != nil {
		p.AddFinalizeHook(func() {
			if cerr := sess.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "mpj: rank %d: %v\n", rank, cerr)
			}
		})
	}
	if tr != nil {
		dir := os.Getenv(EnvTraceDir)
		if dir == "" {
			dir = mpe.DefaultTraceDir
		}
		installTraceHook(p, tr, dev, device, size, dir)
	}
	if addr := os.Getenv(EnvMetricsAddr); addr != "" {
		ts := telemetry.NewServer()
		ts.Register(telemetrySource(rank, device, dev, tr, sess))
		if _, err := ts.Start(addr); err != nil {
			fmt.Fprintf(os.Stderr, "mpj: rank %d: %v\n", rank, err)
		} else {
			p.AddFinalizeHook(func() { ts.Close() })
		}
	}
	return p, nil
}
