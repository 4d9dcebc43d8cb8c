package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpj"
	"mpj/bench/rank"
	"mpj/internal/mpjrt"
)

// repeat is what one launch of one workload produced.
type repeat struct {
	Reports []rank.Report `json:"reports"` // by rank
	SetupS  float64       `json:"setup_s"` // launch call → rank 0 back from its first Barrier
	// LaunchS: launch call → first sign of life from a rank (first
	// output line of a process; body entry of a goroutine rank).
	// TeardownS: rank 0 leaves its closing Barrier → launch call returns.
	LaunchS   float64 `json:"launch_s"`
	TeardownS float64 `json:"teardown_s"`
	// Err is a launch or rank failure: the whole repeat fails.
	Err string `json:"err,omitempty"`
}

func (rp *repeat) fail(err error) repeat {
	if rp.Err == "" {
		rp.Err = err.Error()
	}
	return *rp
}

// launcher starts jobs. Process workloads go through a daemon of our
// own on loopback and mpjrt.Run, exactly as mpjrun would start them,
// with this binary (in its "rank" role) as the program.
type launcher struct {
	self    string
	scratch string
	daemon  *mpjrt.Daemon
	port    int
}

// newLauncher prepares to launch jobs; scratch is the directory the
// daemon may write to.
func newLauncher(scratch string) (*launcher, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	// Spread concurrent benchmark processes over the port space.
	return &launcher{self: self, scratch: scratch, port: firstPort + os.Getpid()%500*40}, nil
}

func (l *launcher) close() {
	if l.daemon != nil {
		l.daemon.Close()
	}
}

// Rank listen ports come from below the kernel's ephemeral range
// (32768 up by default): a port that is free when checked must still be
// free when the rank binds it, and outgoing connections — the ranks'
// own mesh dials among them — take ephemeral ports at any moment.
const firstPort, lastPort = 10000, 30000

// freeBase returns a base port with n free loopback ports from it,
// moving on after each use so consecutive jobs never share a port.
func (l *launcher) freeBase(n int) (int, error) {
	for try := 0; try < 200; try++ {
		base := l.port
		l.port += n
		if l.port+n > lastPort {
			l.port = firstPort
		}
		if portsFree(base, n) {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no %d consecutive free loopback ports found", n)
}

func portsFree(base, n int) bool {
	for p := base; p < base+n; p++ {
		ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(p)))
		if err != nil {
			return false
		}
		ln.Close()
	}
	return true
}

// run launches the workload once, as a fresh job. Process workloads
// start their ranks through mpjrt. Goroutine-rank workloads run in a
// child process (this binary in its "local" role), so that no repeat
// inherits the heap, pools and GC pacing earlier jobs left behind in a
// shared process.
func (l *launcher) run(wl rank.Workload, spec rank.Spec) repeat {
	if wl.Process {
		return l.runProcesses(wl, spec)
	}
	return l.runLocalChild(wl, spec)
}

// localTimeout bounds a child beyond the phases it was asked to run.
const localTimeout = 60 * time.Second

func (l *launcher) runLocalChild(wl rank.Workload, spec rank.Spec) repeat {
	var rp repeat
	arg, err := json.Marshal(spec)
	if err != nil {
		return rp.fail(err)
	}
	limit := localTimeout + time.Duration(spec.WarmupMs+spec.TimedMs)*time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, l.self, "local", string(arg))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	stdout, err := cmd.Output()
	if err != nil {
		return rp.fail(fmt.Errorf("%s child: %w", wl.Name, err))
	}
	if err := json.Unmarshal(stdout, &rp); err != nil {
		return rp.fail(fmt.Errorf("%s child: unreadable output: %w", wl.Name, err))
	}
	// Set-up as the driver pays it, like a process job's: starting the
	// child counts, so work moved into package initialization shows.
	// RunLocalOpts alone takes a third of a millisecond on smpdev, and
	// a quarter of that is within the scatter of single launches.
	if rp.Err == "" {
		rp.SetupS = float64(rp.Reports[0].BarrierUnixNs-t0.UnixNano()) / 1e9
	}
	return rp
}

// localMain is the "local" role: run the spec as goroutine ranks in
// this process and print the repeat as JSON.
func localMain(specJSON string) int {
	var spec rank.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "mpjbench local: bad spec: %v\n", err)
		return 2
	}
	wl, ok := rank.Lookup(spec.Workload)
	if !ok || wl.Process {
		fmt.Fprintf(os.Stderr, "mpjbench local: %q is not a goroutine-rank workload\n", spec.Workload)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(runLocal(wl, spec)); err != nil {
		fmt.Fprintf(os.Stderr, "mpjbench local: %v\n", err)
		return 2
	}
	return 0
}

// rankLines collects what the ranks of one job print.
type rankLines struct {
	mu      sync.Mutex
	first   time.Time
	pending bytes.Buffer
	reports map[int]rank.Report
	other   []string
}

// Write receives "[rank N] line\n" from mpjrt.Run.
func (o *rankLines) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.first.IsZero() {
		o.first = time.Now()
	}
	o.pending.Write(p)
	for {
		i := bytes.IndexByte(o.pending.Bytes(), '\n')
		if i < 0 {
			return len(p), nil
		}
		o.line(string(o.pending.Next(i + 1)[:i]))
	}
}

func (o *rankLines) line(s string) {
	var r int
	rest, ok := strings.CutPrefix(s, "[rank ")
	if ok {
		var num string
		if num, rest, ok = strings.Cut(rest, "] "); ok {
			var err error
			r, err = strconv.Atoi(num)
			ok = err == nil
		}
	}
	body, marked := strings.CutPrefix(rest, rank.Marker+" ")
	switch {
	case !ok || !marked:
		o.other = append(o.other, s)
	case strings.HasPrefix(body, "hello "):
		// Only its arrival time matters: the first output of the job.
	case strings.HasPrefix(body, "report "):
		var rep rank.Report
		if err := json.Unmarshal([]byte(strings.TrimPrefix(body, "report ")), &rep); err != nil {
			o.other = append(o.other, fmt.Sprintf("rank %d: unreadable report: %v", r, err))
			return
		}
		o.reports[r] = rep
	}
}

func (l *launcher) runProcesses(wl rank.Workload, spec rank.Spec) repeat {
	var rp repeat
	if l.daemon == nil {
		d, err := mpjrt.NewDaemon("127.0.0.1:0", l.scratch)
		if err != nil {
			return rp.fail(err)
		}
		l.daemon = d
	}
	base, err := l.freeBase(wl.NP)
	if err != nil {
		return rp.fail(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return rp.fail(err)
	}
	out := &rankLines{reports: make(map[int]rank.Report)}
	t0 := time.Now()
	res, err := mpjrt.Run(mpjrt.Job{
		NP: wl.NP, Daemons: []string{l.daemon.Addr()}, Program: l.self,
		Args: []string{"rank", string(specJSON)}, Device: wl.Device,
		BasePort: base, Output: out, Env: wl.Env,
	})
	returned := time.Now()

	switch {
	case err != nil:
	case res.Failed():
		err = fmt.Errorf("rank exit codes %v", res.ExitCodes)
	case len(out.reports) != wl.NP:
		err = fmt.Errorf("%d of %d ranks reported", len(out.reports), wl.NP)
	}
	if err != nil {
		if len(out.other) > 0 {
			err = fmt.Errorf("%w; rank output: %s", err, strings.Join(out.other, " | "))
		}
		return rp.fail(err)
	}
	rp.Reports = make([]rank.Report, wl.NP)
	for r := range rp.Reports {
		rp.Reports[r] = out.reports[r]
	}
	rp.LaunchS = out.first.Sub(t0).Seconds()
	rp.finish(t0, returned)
	return rp
}

// finish derives the launch-relative times from rank 0's wall-clock
// stamps (same host, same clock) and surfaces a rank's own error.
func (rp *repeat) finish(t0, returned time.Time) {
	r0 := rp.Reports[0]
	rp.SetupS = float64(r0.BarrierUnixNs-t0.UnixNano()) / 1e9
	rp.TeardownS = float64(returned.UnixNano()-r0.EndUnixNs) / 1e9
	for _, r := range rp.Reports {
		if r.Err != "" {
			rp.fail(fmt.Errorf("rank %d: %s", r.Rank, r.Err))
		}
	}
}

// runLocal runs the workload as goroutine ranks in this process (the
// child's, when called from localMain).
func runLocal(wl rank.Workload, spec rank.Spec) repeat {
	rp := repeat{Reports: make([]rank.Report, wl.NP)}
	var entered time.Time
	stall := func() {
		fmt.Fprintf(os.Stderr, "mpjbench: %s: no op completed for %v\n", wl.Name, rank.OpTimeout)
		os.Exit(3)
	}
	t0 := time.Now()
	err := mpj.RunLocalOpts(wl.NP, &mpj.Options{Device: wl.Device, NodeMap: wl.NodeMap}, func(p *mpj.Process) error {
		if p.Rank() == 0 {
			entered = time.Now()
		}
		rp.Reports[p.Rank()] = rank.Run(p, spec, stall)
		return nil
	})
	returned := time.Now()
	if err != nil {
		return rp.fail(err)
	}
	rp.LaunchS = entered.Sub(t0).Seconds()
	rp.finish(t0, returned)
	return rp
}
