package mpjrt

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpj/internal/telemetry"
)

// Daemon executes MPJ processes on behalf of mpjrun clients (the
// paper's compute-node daemon module). One daemon serves many jobs;
// each "start" request spawns one process and streams its output back
// over the requesting connection until it exits.
type Daemon struct {
	listener net.Listener
	scratch  string // download area for remote loading

	mu     sync.Mutex
	jobs   map[string][]*exec.Cmd
	closed bool
	wg     sync.WaitGroup

	// Live telemetry (see internal/telemetry): ranks started with an
	// MPJ_METRICS_ADDR in their spec env register as scrape targets of
	// agg, and ServeMetrics exposes the aggregated job-level view.
	agg        *telemetry.Aggregator
	metricsSrv *http.Server
	metricsLn  net.Listener

	// Failure handling (see failure.go): jobs already torn down after
	// a rank failure, jobs with a live heartbeat monitor, and the
	// heartbeat policy set by SetHeartbeat.
	failed     map[string]bool
	monitors   map[string]bool
	hbInterval time.Duration
	hbMisses   int
	stop       chan struct{}
}

// NewDaemon starts a daemon listening on addr ("host:port"; port 0
// picks one). scratchDir receives remotely loaded binaries ("" uses a
// fresh temporary directory).
func NewDaemon(addr, scratchDir string) (*Daemon, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpjrt: daemon listen: %w", err)
	}
	if scratchDir == "" {
		scratchDir, err = os.MkdirTemp("", "mpjdaemon-")
		if err != nil {
			l.Close()
			return nil, err
		}
	}
	d := &Daemon{
		listener: l, scratch: scratchDir,
		jobs:     make(map[string][]*exec.Cmd),
		failed:   make(map[string]bool),
		monitors: make(map[string]bool),
		stop:     make(chan struct{}),
		agg:      telemetry.NewAggregator(),
	}
	d.wg.Add(1)
	go d.serve()
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.listener.Addr().String() }

// ServeMetrics starts an HTTP endpoint on addr (":0" picks a free
// port) aggregating the telemetry of every rank this daemon has
// started with a live MPJ_METRICS_ADDR. It returns the bound address.
func (d *Daemon) ServeMetrics(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("mpjrt: metrics listen: %w", err)
	}
	srv := &http.Server{Handler: d.agg, ReadHeaderTimeout: 5 * time.Second}
	d.mu.Lock()
	d.metricsLn, d.metricsSrv = l, srv
	d.mu.Unlock()
	go srv.Serve(l)
	return l.Addr().String(), nil
}

// MetricsAddr returns the metrics endpoint address, or "" when
// ServeMetrics has not been called.
func (d *Daemon) MetricsAddr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// metricsAddrOf extracts a rank's telemetry address from its spec env.
func metricsAddrOf(env []string) string {
	for _, kv := range env {
		if v, ok := strings.CutPrefix(kv, "MPJ_METRICS_ADDR="); ok {
			return v
		}
	}
	return ""
}

// Close stops the daemon and kills any processes it started.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.stop)
	for _, cmds := range d.jobs {
		for _, c := range cmds {
			if c.Process != nil {
				c.Process.Kill()
			}
		}
	}
	srv := d.metricsSrv
	d.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	d.listener.Close()
	d.wg.Wait()
	return nil
}

func (d *Daemon) serve() {
	defer d.wg.Done()
	for {
		raw, err := d.listener.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.handle(newConn(raw))
		}()
	}
}

func (d *Daemon) handle(c *conn) {
	defer c.close()
	req, err := c.recvRequest()
	if err != nil {
		return
	}
	switch req.Kind {
	case "ping":
		c.sendEvent(&Event{Kind: "pong"})
	case "kill":
		d.kill(req.JobID)
		c.sendEvent(&Event{Kind: "killed"})
	case "status":
		c.sendEvent(&Event{Kind: "status", Jobs: d.status()})
	case "start":
		if req.Start == nil {
			c.sendEvent(&Event{Kind: "error", Err: "start request without spec"})
			return
		}
		d.start(c, req.Start)
	default:
		c.sendEvent(&Event{Kind: "error", Err: "unknown request kind " + req.Kind})
	}
}

// status snapshots the daemon's jobs and their live process counts.
// Exited processes are removed from the table by their start handler,
// so every listed command is live.
func (d *Daemon) status() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int, len(d.jobs))
	for id, cmds := range d.jobs {
		out[id] = len(cmds)
	}
	return out
}

// forget removes an exited process from the job table.
func (d *Daemon) forget(jobID string, cmd *exec.Cmd) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cmds := d.jobs[jobID]
	for i, c := range cmds {
		if c == cmd {
			d.jobs[jobID] = append(cmds[:i], cmds[i+1:]...)
			break
		}
	}
	if len(d.jobs[jobID]) == 0 {
		delete(d.jobs, jobID)
	}
}

func (d *Daemon) kill(jobID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.jobs[jobID] {
		if c.Process != nil {
			c.Process.Kill()
		}
	}
	delete(d.jobs, jobID)
}

// fetch downloads a remotely loaded program into the scratch area.
func (d *Daemon) fetch(url string, rank int) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", fmt.Errorf("mpjrt: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("mpjrt: fetch %s: HTTP %d", url, resp.StatusCode)
	}
	prog, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("mpjrt: fetch %s: %w", url, err)
	}
	path := filepath.Join(d.scratch, fmt.Sprintf("prog-%d-%d", rank, time.Now().UnixNano()))
	// The file is open for writing only while no fork can run: a rank
	// started concurrently must not inherit the write descriptor, or
	// exec of this program fails with "text file busy" until that
	// child's own exec closes it.
	syscall.ForkLock.RLock()
	defer syscall.ForkLock.RUnlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o755)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(prog); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func (d *Daemon) start(c *conn, spec *StartSpec) {
	if err := spec.validate(); err != nil {
		c.sendEvent(&Event{Kind: "error", Rank: spec.Rank, Err: err.Error()})
		return
	}
	path := spec.Path
	if spec.FetchURL != "" {
		fetched, err := d.fetch(spec.FetchURL, spec.Rank)
		if err != nil {
			c.sendEvent(&Event{Kind: "error", Rank: spec.Rank, Err: err.Error()})
			return
		}
		path = fetched
	}
	device := spec.Device
	if device == "" {
		device = "niodev"
	}

	cmd := exec.Command(path, spec.Args...)
	cmd.Dir = spec.Dir
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("MPJ_RANK=%d", spec.Rank),
		fmt.Sprintf("MPJ_SIZE=%d", spec.Size),
		fmt.Sprintf("MPJ_ADDRS=%s", join(spec.Addrs)),
		fmt.Sprintf("MPJ_DEVICE=%s", device),
	)
	cmd.Env = append(cmd.Env, spec.Env...)

	stdout, err := cmd.StdoutPipe()
	if err != nil {
		c.sendEvent(&Event{Kind: "error", Rank: spec.Rank, Err: err.Error()})
		return
	}
	cmd.Stderr = cmd.Stdout

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		c.sendEvent(&Event{Kind: "error", Rank: spec.Rank, Err: "daemon shutting down"})
		return
	}
	if err := cmd.Start(); err != nil {
		d.mu.Unlock()
		c.sendEvent(&Event{Kind: "error", Rank: spec.Rank, Err: err.Error()})
		return
	}
	d.jobs[spec.JobID] = append(d.jobs[spec.JobID], cmd)
	d.mu.Unlock()
	if maddr := metricsAddrOf(spec.Env); maddr != "" {
		target := fmt.Sprintf("%s/rank-%d", spec.JobID, spec.Rank)
		d.agg.Add(target, maddr)
		defer d.agg.Remove(target)
	}
	d.maybeMonitor(spec)

	c.sendEvent(&Event{Kind: "started", Rank: spec.Rank})

	scanner := bufio.NewScanner(stdout)
	scanner.Buffer(make([]byte, 64<<10), 1<<20)
	for scanner.Scan() {
		c.sendEvent(&Event{Kind: "output", Rank: spec.Rank, Line: scanner.Text()})
	}
	code := 0
	if err := cmd.Wait(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else {
			code = -1
		}
	}
	d.forget(spec.JobID, cmd)
	if code != 0 {
		if spec.FT {
			// Fault-tolerant mode: a dead rank is a membership event,
			// not a job failure. The survivors detect the loss at the
			// device layer and recover (revoke/shrink/restore); tearing
			// them down here would defeat that.
			c.sendEvent(&Event{Kind: "memberlost", Rank: spec.Rank, Code: code})
		} else {
			// One rank failing dooms the job: kill its other local ranks
			// and tell the peer daemons, so survivors blocked on the dead
			// rank are torn down instead of hanging.
			d.failJob(spec.JobID, spec.PeerDaemons)
		}
	}
	c.sendEvent(&Event{Kind: "exit", Rank: spec.Rank, Code: code})
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// Status asks the daemon at addr for its job table.
func Status(addr string) (map[string]int, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newConn(raw)
	defer c.close()
	if err := c.sendRequest(&Request{Kind: "status"}); err != nil {
		return nil, err
	}
	ev, err := c.recvEvent()
	if err != nil {
		return nil, err
	}
	if ev.Kind != "status" {
		return nil, fmt.Errorf("mpjrt: unexpected status reply %q", ev.Kind)
	}
	return ev.Jobs, nil
}

// Ping checks that a daemon is reachable at addr.
func Ping(addr string, timeout time.Duration) error {
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	c := newConn(raw)
	defer c.close()
	if err := c.sendRequest(&Request{Kind: "ping"}); err != nil {
		return err
	}
	ev, err := c.recvEvent()
	if err != nil {
		return err
	}
	if ev.Kind != "pong" {
		return fmt.Errorf("mpjrt: unexpected ping reply %q", ev.Kind)
	}
	return nil
}

// Kill asks the daemon at addr to kill all processes of a job.
func Kill(addr, jobID string) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c := newConn(raw)
	defer c.close()
	if err := c.sendRequest(&Request{Kind: "kill", JobID: jobID}); err != nil {
		return err
	}
	_, err = c.recvEvent()
	return err
}
