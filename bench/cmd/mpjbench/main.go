// Command mpjbench is the standing benchmark of the mpj library: five
// closed-loop workloads, three gated end-to-end metrics on each, and —
// from a separate traced run — a per-layer ledger. See ../../README.md.
//
//	mpjbench [-workload all|NAME] [-seed N] [-seconds S] [-repeats R] [-trace 0|1] [-out FILE]
//	mpjbench compare A.json B.json
//	mpjbench spread RUN.json...
//
// Run it from the bench directory (run.sh does): results go to
// results/ and scratch files to .build/ beneath the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpj/bench/layers"
	"mpj/bench/rank"
	"mpj/bench/stats"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "rank": // the role mpjrt launches this binary in
			if len(os.Args) != 3 {
				fmt.Fprintln(os.Stderr, "usage: mpjbench rank SPEC-JSON")
				os.Exit(2)
			}
			os.Exit(rank.Main(os.Args[2]))
		case "local": // goroutine-rank jobs run in a child of the driver
			if len(os.Args) != 3 {
				fmt.Fprintln(os.Stderr, "usage: mpjbench local SPEC-JSON")
				os.Exit(2)
			}
			os.Exit(localMain(os.Args[2]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		case "spread":
			os.Exit(spreadMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's plan.
type config struct {
	workloads []rank.Workload
	seed      int64
	settings  Settings
	out       string // result file; "" derives it from the commit
	single    bool   // one workload: end with the one-line JSON result
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("mpjbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for payload bytes, tag permutations and sender start stagger")
	seconds := fs.Float64("seconds", 15, "timed seconds per workload, split over the repeats (results compare only at equal settings)")
	repeats := fs.Int("repeats", 20, "fresh job launches per workload; a metric is the median over them")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "result file (default results/BENCH_<commit>[_<workload>].json)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *repeats < 1 || (*trace != 0 && *trace != 1) {
		return config{}, fmt.Errorf("need -seconds > 0, -repeats >= 1 and -trace 0 or 1")
	}
	cfg := config{seed: *seed, out: *out, workloads: rank.Workloads}
	if *workload != "all" {
		wl, ok := rank.Lookup(*workload)
		if !ok {
			return config{}, fmt.Errorf("unknown workload %q", *workload)
		}
		cfg.workloads, cfg.single = []rank.Workload{wl}, true
	}
	timed := *seconds / float64(*repeats)
	if *trace == 1 {
		// A traced run launches each workload twice whatever -repeats
		// says; longer phases give its percentiles more samples.
		timed = *seconds / 4
	}
	cfg.settings = Settings{
		Seconds: *seconds, Repeats: *repeats, Trace: *trace == 1,
		TimedMs: int(timed * 1000),
		// Long enough for connections, pools and the scheduler to
		// settle; a sixth of the timed phase, within [0.1 s, 1 s].
		WarmupMs: int(1000 * min(max(timed/6, 0.1), 1)),
	}
	return cfg, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "mpjbench:", err)
		}
		return 2
	}
	l, err := newLauncher(filepath.Join(".build", "daemon"))
	if err != nil {
		fmt.Fprintln(stderr, "mpjbench:", err)
		return 2
	}
	defer l.close()
	// A hung job must not hang the caller: leave generous room over
	// the planned measuring time, then give up loudly.
	s := cfg.settings
	planned := time.Duration(len(cfg.workloads)*s.Repeats*(s.WarmupMs+s.TimedMs)) * time.Millisecond
	guard := time.AfterFunc(90*time.Second+2*planned, func() {
		fmt.Fprintln(stderr, "mpjbench: run exceeded its time limit")
		l.close()
		os.Exit(4)
	})
	defer guard.Stop()

	res := &Result{Fingerprint: fingerprint(cfg.seed, s)}
	fmt.Fprintf(stdout, "mpjbench: commit %s dirty=%v, %s, GOMAXPROCS=%d nproc=%d, %s, kernel %s\n",
		res.Fingerprint.Commit, res.Fingerprint.Dirty, res.Fingerprint.GoVersion,
		res.Fingerprint.GOMAXPROCS, res.Fingerprint.NumCPU, res.Fingerprint.CPU, res.Fingerprint.Kernel)
	fmt.Fprintf(stdout, "mpjbench: %s\nmpjbench: %s\n", loopNote, linkNote)
	launches := fmt.Sprintf("%d repeats", s.Repeats)
	if s.Trace {
		launches = "traced run: one untraced and one traced launch"
	}
	fmt.Fprintf(stdout, "mpjbench: seed %d, %s of %d ms warm-up + %d ms timed per workload\n",
		cfg.seed, launches, s.WarmupMs, s.TimedMs)

	defs := endToEnd
	var tf *TraceFile
	if s.Trace {
		defs = perLayer
		tf = &TraceFile{Fingerprint: res.Fingerprint}
		err = runTraced(cfg, l, res, tf)
	} else {
		runTimed(cfg, l, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mpjbench:", err)
		return 1
	}

	ok := true
	for i := range res.Workloads {
		w := &res.Workloads[i]
		w.print(stdout, defs)
		fmt.Fprintf(stdout, "%-26s attempted %d, failed %d; %.1f MB/s (%s); %d measured launches, rank PIDs of the first %v, driver PID %d\n",
			w.Name, w.Attempted, w.Failed, w.MBPerS, w.ByteBase, len(w.RankPIDs), w.RankPIDs[0], w.DriverPID)
		for _, m := range w.Misses {
			fmt.Fprintf(stdout, "%-26s FAILED CHECK: %s\n", w.Name, m)
		}
		ok = ok && w.Failed == 0 && len(w.Misses) == 0
	}

	suffix := res.Fingerprint.Commit
	if cfg.single {
		suffix += "_" + cfg.workloads[0].Name
	}
	path := cfg.out
	if path == "" {
		kind := "BENCH_"
		if s.Trace {
			kind = "LAYERS_"
		}
		path = filepath.Join("results", kind+suffix+".json")
	}
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(stderr, "mpjbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "mpjbench: wrote %s\n", path)
	if tf != nil {
		tpath := filepath.Join(filepath.Dir(path), "TRACE_"+suffix+".json")
		if err := writeJSON(tpath, tf); err != nil {
			fmt.Fprintln(stderr, "mpjbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "mpjbench: wrote %s\n", tpath)
	}

	if cfg.single {
		if err := printContractLine(stdout, &res.Workloads[0], defs, ok); err != nil {
			fmt.Fprintln(stderr, "mpjbench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printContractLine ends a single-workload run with the one JSON
// object automated callers read.
func printContractLine(out io.Writer, w *WorkloadResult, defs []metricDef, ok bool) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: ok, Attempted: max(w.Attempted, 1), Failed: w.Failed, Metrics: make(map[string]mv)}
	for _, d := range defs {
		m := w.Metrics[d.Name]
		if m == nil {
			return fmt.Errorf("%s: metric %s was not measured", w.Name, d.Name)
		}
		line.Metrics[d.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// spec describes repeat rep of wl. Each repeat has a seed of its own,
// so repeats see different inputs and the run as a whole is a function
// of -seed.
func (cfg config) spec(wl rank.Workload, rep int, trace bool) rank.Spec {
	return rank.Spec{
		Workload: wl.Name, Seed: cfg.seed*7919 + int64(rep),
		WarmupMs: cfg.settings.WarmupMs, TimedMs: cfg.settings.TimedMs, Trace: trace,
	}
}

func totalOps(rp repeat) (ops int64) {
	for _, r := range rp.Reports {
		ops += r.Ops
	}
	return ops
}

func rankPIDs(rp repeat) []int {
	pids := make([]int, len(rp.Reports))
	for i, r := range rp.Reports {
		pids[i] = r.PID
	}
	return pids
}

// account folds one launch's ops, failures and output checks into w
// and reports whether the launch may contribute metric values.
func account(w *WorkloadResult, wl rank.Workload, rp repeat) bool {
	ops := totalOps(rp)
	if rp.Err != "" {
		// A rank that failed, hung or exited non-zero fails every op of
		// the launch: none of its figures can be trusted.
		w.Misses = append(w.Misses, rp.Err)
		w.Attempted += max(ops, 1)
		w.Failed += max(ops, 1)
		return false
	}
	var failed, sent, received int64
	var eager, rndv uint64
	for _, r := range rp.Reports {
		failed += r.Failed
		sent += r.Sent
		received += r.Received
		eager += r.Counters.EagerSent
		rndv += r.Counters.RndvSent
	}
	miss := func(format string, args ...any) {
		w.Misses = append(w.Misses, fmt.Sprintf(format, args...))
		failed++
	}
	if sent != received {
		miss("%d data messages sent, %d received", sent, received)
	}
	if wl.ExactProtocol && (eager != uint64(ops)*wl.EagerPerOp || rndv != uint64(ops)*wl.RndvPerOp) {
		miss("%d ops sent %d eager and %d rendezvous messages, want %d and %d per op",
			ops, eager, rndv, wl.EagerPerOp, wl.RndvPerOp)
	}
	if wl.Process {
		seen := map[int]bool{os.Getpid(): true}
		for _, pid := range rankPIDs(rp) {
			if seen[pid] {
				miss("rank PIDs %v are not distinct OS processes (driver %d)", rankPIDs(rp), os.Getpid())
				break
			}
			seen[pid] = true
		}
	}
	if ops == 0 || rp.Reports[0].TimedS <= 0 {
		miss("no op completed in the timed phase")
	}
	w.Attempted += max(ops, 1)
	w.Failed += failed
	return failed == 0
}

func newWorkloadResult(wl rank.Workload) WorkloadResult {
	return WorkloadResult{
		Name: wl.Name, Why: wl.Why, DriverPID: os.Getpid(), RankEnv: wl.Env,
		ByteBase: fmt.Sprintf("%d payload bytes per op", wl.OpBytes),
		Metrics:  make(map[string]*Metric),
	}
}

// runTimed is the untraced run: R repeats of every workload, each
// repeat a fresh launch; a metric is the median over the repeats. One
// workload's repeats run back to back, so that a run of all workloads
// measures each as a run of it alone does. (Taking the workloads in
// turn after every repeat was tried: all but the first then ran 6–9 %
// slower and scattered three times as much, fan-in's quartiles 4.8–6.1
// µs against 4.5–4.6.)
func runTimed(cfg config, l *launcher, res *Result) {
	type acc struct {
		vals    map[string][]float64
		samples map[string]int
		ops     int64
		timedS  float64
	}
	accs := make([]acc, len(cfg.workloads))
	for i, wl := range cfg.workloads {
		res.Workloads = append(res.Workloads, newWorkloadResult(wl))
		accs[i] = acc{vals: make(map[string][]float64), samples: make(map[string]int)}
	}
	for i, wl := range cfg.workloads {
		for rep := 0; rep < cfg.settings.Repeats; rep++ {
			w, a := &res.Workloads[i], &accs[i]
			rp := l.run(wl, cfg.spec(wl, rep, false))
			w.RankPIDs = append(w.RankPIDs, rankPIDs(rp))
			if !account(w, wl, rp) {
				continue
			}
			ops, r0 := totalOps(rp), rp.Reports[0]
			a.ops += ops
			a.timedS += r0.TimedS
			for name, v := range map[string]float64{
				"op_p50_us": r0.Op.P50, "ops_per_s": float64(ops) / r0.TimedS, "setup_s": rp.SetupS,
			} {
				a.vals[name] = append(a.vals[name], v)
			}
			a.samples["op_p50_us"] += r0.Op.N
			a.samples["ops_per_s"] += int(ops)
			a.samples["setup_s"]++
		}
	}
	for i, wl := range cfg.workloads {
		w, a := &res.Workloads[i], &accs[i]
		for _, d := range endToEnd {
			if len(a.vals[d.Name]) > 0 {
				w.Metrics[d.Name] = newMetric(d, a.vals[d.Name], a.samples[d.Name], "")
				w.Metrics[d.Name].AASpread = aaSpread(cfg.settings, wl.Name, d.Name)
			}
		}
		if a.timedS > 0 {
			w.MBPerS = float64(a.ops) * float64(wl.OpBytes) / a.timedS / 1e6
		}
	}
}

// spanOf returns the summary of the named span from the rank that
// recorded the most of them: the side of the workload that makes the
// call.
func spanOf(reports []rank.Report, name string) stats.Summary {
	var best stats.Summary
	for _, r := range reports {
		if s := r.Spans[name]; s.N > best.N {
			best = s
		}
	}
	return best
}

// runTraced is the traced run: per workload one untraced and one
// traced repeat (their ratio is the recorder's own cost), plus the
// layer probes once.
func runTraced(cfg config, l *launcher, res *Result, tf *TraceFile) error {
	probes, err := layers.Run()
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for _, wl := range cfg.workloads {
		res.Workloads = append(res.Workloads, newWorkloadResult(wl))
		w := &res.Workloads[len(res.Workloads)-1]
		plain := l.run(wl, cfg.spec(wl, 0, false))
		traced := l.run(wl, cfg.spec(wl, 0, true))
		w.RankPIDs = append(w.RankPIDs, rankPIDs(plain), rankPIDs(traced))
		okPlain := account(w, wl, plain)
		if !account(w, wl, traced) || !okPlain {
			continue
		}
		layerMetrics(w, wl, plain, traced, probes)
		for _, ratio := range []string{"layers.reconcile_ratio_8B", "layers.reconcile_ratio_1MiB"} {
			if m := w.Metrics[ratio]; m != nil && (m.Value < 0.8 || m.Value > 1.25) {
				w.Misses = append(w.Misses, fmt.Sprintf("%s = %.3f is outside [0.8, 1.25]: the peel's rungs disagree by more than the layers they separate", ratio, m.Value))
			}
		}
		wt := WorkloadTrace{Name: wl.Name, Summaries: make(map[string]map[string]stats.Summary)}
		for _, r := range traced.Reports {
			wt.Summaries[fmt.Sprintf("rank %d", r.Rank)] = r.Spans
			wt.Spans = append(wt.Spans, r.Trace...)
		}
		tf.Workloads = append(tf.Workloads, wt)
	}
	return nil
}

// layerMetrics fills w.Metrics with every per-layer metric.
func layerMetrics(w *WorkloadResult, wl rank.Workload, plain, traced repeat, probes map[string]float64) {
	set := func(name string, v float64, n int, note string) {
		for _, d := range perLayer {
			if d.Name == name {
				w.Metrics[name] = newMetric(d, []float64{v}, n, note)
				return
			}
		}
		w.Misses = append(w.Misses, "unregistered per-layer metric "+name)
	}
	for name, v := range probes {
		set(name, v, 1, "probe")
	}

	// From the untraced repeat: the tail, memory and counters of the
	// workload as users run it.
	p0, ops := plain.Reports[0], totalOps(plain)
	var mallocs, allocBytes uint64
	var rss int64
	c := p0.Counters
	for i, r := range plain.Reports {
		rss = max(rss, r.MaxRSSKB)
		if i > 0 {
			c = c.Add(r.Counters)
		}
		// Goroutine ranks share one heap, so rank 0's reading already
		// covers the job; process ranks each have their own.
		if wl.Process || i == 0 {
			mallocs += r.Mallocs
			allocBytes += r.AllocBytes
		}
	}
	per := func(x uint64) float64 { return float64(x) / float64(ops) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tailNote := "sample too small for a tail percentile"
	if p0.Op.TailPct > 0 {
		tailNote = fmt.Sprintf("p%g: the highest percentile, up to p99, with 10 samples beyond it", p0.Op.TailPct)
	}
	set("mpj.op_p99_us", p0.Op.Tail, p0.Op.N, tailNote)
	set("mpj.allocs_per_op", per(mallocs), int(ops), "")
	set("mpj.alloc_bytes_per_op", per(allocBytes), int(ops), "")
	set("mpj.peak_rss_mb", float64(rss)/1024, len(plain.Reports), "largest rank")
	set("core.coll_segs_sent_per_op", per(c.CollSegsSent), int(c.CollSegsSent), "")
	set("devcore.unexpected_share", ratio(c.Unexpected, c.Unexpected+c.Matched), int(c.Unexpected+c.Matched), "")
	set("niodev.eager_per_op", per(c.EagerSent), int(c.EagerSent), "")
	set("niodev.rndv_per_op", per(c.RndvSent), int(c.RndvSent), "")
	set("niodev.frames_per_batch", ratio(c.FramesCoalesced, c.SendBatches), int(c.SendBatches), "")
	set("niodev.bytes_per_batch", ratio(c.SendBatchBytes, c.SendBatches), int(c.SendBatches), "")

	// From the traced repeat: where the calls' time goes.
	span := func(metric, name string) {
		s := spanOf(traced.Reports, name)
		note := ""
		if s.N == 0 {
			note = "not exercised by this workload"
		}
		set(metric, s.P50, s.N, note)
	}
	span("mpj.send_call_p50_us", "send_call")
	span("mpj.recv_wait_p50_us", "recv_wait")
	span("mpjdev.waitany_p50_us", "waitany")
	span("core.bcast_1MiB_p50_us", "bcast")
	span("core.allreduce_256KiB_p50_us", "allreduce")
	span("core.barrier_p50_us", "barrier")
	t0 := traced.Reports[0]
	set("mpj.trace_overhead_ratio", t0.Op.P50/p0.Op.P50, t0.Op.N,
		fmt.Sprintf("traced %.4g us over untraced %.4g us", t0.Op.P50, p0.Op.P50))

	// Where set-up time goes, from the untraced launch.
	var initS float64
	for _, r := range plain.Reports {
		initS = max(initS, r.InitS)
	}
	set("mpjrt.launch_s", plain.LaunchS, 1, "")
	set("mpjrt.init_mesh_s", initS, len(plain.Reports), "slowest rank's InitFromEnv; 0 for goroutine ranks")
	set("mpjrt.teardown_s", plain.TeardownS, 1, "")

	w.MBPerS = float64(ops) * float64(wl.OpBytes) / p0.TimedS / 1e6
	var missing []string
	for _, d := range perLayer {
		if w.Metrics[d.Name] == nil {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		w.Misses = append(w.Misses, "per-layer metrics not measured: "+strings.Join(missing, ", "))
	}
}
