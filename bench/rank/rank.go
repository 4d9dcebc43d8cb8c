// Package rank is the rank side of mpjbench: the five workload bodies,
// written against the public mpj API, and the entry point a rank
// process runs when mpjrt launches it. The same bodies run as real OS
// processes (Main, after InitFromEnv) and as goroutine ranks under
// RunLocalOpts; they receive only inputs generated from the seed.
package rank

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"mpj"
	"mpj/bench/stats"
	"mpj/internal/mpe"
)

// Spec is what the driver hands every rank of one repeat.
type Spec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	WarmupMs int    `json:"warmup_ms"`
	TimedMs  int    `json:"timed_ms"`
	Trace    bool   `json:"trace"`
}

// Report is one rank's account of one repeat.
type Report struct {
	Rank int `json:"rank"`
	PID  int `json:"pid"`
	// InitS is how long InitFromEnv took (process ranks only).
	InitS float64 `json:"init_s"`
	// BarrierUnixNs is when the rank returned from its first Barrier;
	// EndUnixNs when it left the closing one. Wall-clock, so the driver
	// — on the same host — can subtract its own readings.
	BarrierUnixNs int64 `json:"barrier_unix_ns"`
	EndUnixNs     int64 `json:"end_unix_ns"`

	// The timed phase. Only the measuring rank (0) fills TimedS and Op.
	TimedS   float64       `json:"timed_s"`
	Ops      int64         `json:"ops"`
	Failed   int64         `json:"failed"`
	Sent     int64         `json:"sent"`     // data messages this rank sent
	Received int64         `json:"received"` // data messages this rank received
	Op       stats.Summary `json:"op"`       // per-op time, µs

	// Deltas over the timed phase.
	Counters   mpe.CounterSnapshot `json:"counters"`
	Mallocs    uint64              `json:"mallocs"`
	AllocBytes uint64              `json:"alloc_bytes"`
	MaxRSSKB   int64               `json:"max_rss_kb"`

	Spans map[string]stats.Summary `json:"spans,omitempty"` // µs, traced runs only
	Trace []Span                   `json:"trace,omitempty"`

	Err string `json:"err,omitempty"`
}

// OpTimeout is how long a rank may go without completing an op before
// the repeat is declared failed.
const OpTimeout = 10 * time.Second

// run is the state a workload body works with.
type run struct {
	w    *mpj.Intracomm
	rank int
	seed int64
	// progress is bumped as ops complete; the watchdog reads it.
	progress *atomic.Int64
	// trace is set for the timed phase of a traced repeat.
	trace bool
}

// recorder returns a span recorder for one goroutine of the rank, nil
// when the phase is not traced.
func (c *run) recorder(thread int) *Recorder {
	if !c.trace {
		return nil
	}
	return NewRecorder(c.rank, thread)
}

// phaseResult is what one phase (warm-up or timed) of a body returns.
type phaseResult struct {
	ops, failed    int64
	sent, received int64
	wall           time.Duration // measuring rank: phase start → last op done
	op             *stats.Sampler
	recs           []*Recorder
}

// Run executes one repeat of spec.Workload on this rank: first Barrier
// (the end of set-up), a warm-up phase, then the timed phase between
// two barriers with counter snapshots on either side. stall is called
// if no op completes for OpTimeout.
func Run(p *mpj.Process, spec Spec, stall func()) Report {
	rep := Report{Rank: p.Rank(), PID: os.Getpid()}
	wl, ok := Lookup(spec.Workload)
	if !ok {
		rep.Err = "unknown workload " + spec.Workload
		return rep
	}
	c := &run{w: p.World(), rank: p.Rank(), seed: spec.Seed, progress: new(atomic.Int64)}
	defer watch(c.progress, OpTimeout, stall)()

	fail := func(stage string, err error) Report {
		rep.Err = fmt.Sprintf("%s: %v", stage, err)
		return rep
	}
	if err := c.w.Barrier(); err != nil {
		return fail("first barrier", err)
	}
	rep.BarrierUnixNs = time.Now().UnixNano()

	if _, err := wl.phase(c, time.Duration(spec.WarmupMs)*time.Millisecond); err != nil {
		return fail("warm-up", err)
	}
	if err := c.w.Barrier(); err != nil {
		return fail("barrier", err)
	}

	c.trace = spec.Trace
	before := snapshot(p)
	res, err := wl.phase(c, time.Duration(spec.TimedMs)*time.Millisecond)
	after := snapshot(p)
	if err != nil {
		return fail("timed phase", err)
	}
	if err := c.w.Barrier(); err != nil {
		return fail("closing barrier", err)
	}
	rep.EndUnixNs = time.Now().UnixNano()

	rep.TimedS = res.wall.Seconds()
	rep.Ops, rep.Failed, rep.Sent, rep.Received = res.ops, res.failed, res.sent, res.received
	if res.op != nil {
		rep.Op = res.op.Summary()
	}
	rep.Counters = diffCounters(after.counters, before.counters)
	rep.Mallocs = after.mem.Mallocs - before.mem.Mallocs
	rep.AllocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	rep.MaxRSSKB = maxRSSKB()
	if spec.Trace {
		rep.Spans, rep.Trace = mergeSpans(res.recs)
	}
	return rep
}

type snap struct {
	counters mpe.CounterSnapshot
	mem      runtime.MemStats
}

func snapshot(p *mpj.Process) snap {
	var s snap
	if src, ok := p.Device().(mpe.StatsSource); ok {
		s.counters = src.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// diffCounters subtracts the counters the benchmark reads.
func diffCounters(a, b mpe.CounterSnapshot) mpe.CounterSnapshot {
	return mpe.CounterSnapshot{
		EagerSent:       a.EagerSent - b.EagerSent,
		RndvSent:        a.RndvSent - b.RndvSent,
		BytesSent:       a.BytesSent - b.BytesSent,
		Unexpected:      a.Unexpected - b.Unexpected,
		Matched:         a.Matched - b.Matched,
		RequestsFailed:  a.RequestsFailed - b.RequestsFailed,
		CollSegsSent:    a.CollSegsSent - b.CollSegsSent,
		CollSegsRecv:    a.CollSegsRecv - b.CollSegsRecv,
		SendBatches:     a.SendBatches - b.SendBatches,
		FramesCoalesced: a.FramesCoalesced - b.FramesCoalesced,
		SendBatchBytes:  a.SendBatchBytes - b.SendBatchBytes,
	}
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss // KiB on Linux
}

// watch calls stall once if progress stops changing for limit. The
// returned function stops the watchdog and waits for it.
func watch(progress *atomic.Int64, limit time.Duration, stall func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(limit / 10)
		defer tick.Stop()
		last, since := progress.Load(), time.Now()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if now := progress.Load(); now != last {
				last, since = now, time.Now()
			} else if time.Since(since) >= limit {
				stall()
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}

// Marker prefixes the lines a rank process prints for the driver.
const Marker = "MPJBENCH"

// Main is the rank process: announce the PID, join the job from the
// MPJ_* environment mpjrt set, run the repeat described by the JSON
// spec, and print the report as one line. It returns the exit code.
func Main(specJSON string) int {
	fmt.Printf("%s hello {\"pid\":%d}\n", Marker, os.Getpid())
	var spec Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "mpjbench rank: bad spec: %v\n", err)
		return 2
	}
	t0 := time.Now()
	p, err := mpj.InitFromEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpjbench rank: %v\n", err)
		return 2
	}
	initS := time.Since(t0).Seconds()
	rep := Run(p, spec, func() {
		fmt.Fprintf(os.Stderr, "mpjbench rank %d: no op completed for %v\n", p.Rank(), OpTimeout)
		os.Exit(3)
	})
	rep.InitS = initS
	if err := p.Finalize(); err != nil && rep.Err == "" {
		rep.Err = fmt.Sprintf("finalize: %v", err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpjbench rank: %v\n", err)
		return 2
	}
	fmt.Printf("%s report %s\n", Marker, line)
	if rep.Err != "" {
		return 1
	}
	return 0
}
