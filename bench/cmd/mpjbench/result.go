package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"mpj/bench/rank"
	"mpj/bench/stats"
)

// Settings are the knobs two result files must share to be compared.
type Settings struct {
	Seconds  float64 `json:"seconds"`   // timed seconds per workload, over all repeats
	Repeats  int     `json:"repeats"`   // fresh job launches per workload
	WarmupMs int     `json:"warmup_ms"` // per repeat, untimed
	TimedMs  int     `json:"timed_ms"`  // per repeat
	Trace    bool    `json:"trace"`
}

// Fingerprint says where and how a result file was produced.
type Fingerprint struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Link       string `json:"link"`
	Loop       string `json:"loop"`
	Seed       int64  `json:"seed"`
	Settings
}

const (
	linkNote = "loopback TCP (127.0.0.1) between OS processes, in-process transports between goroutine ranks: not a real link"
	loopNote = "closed loop: every caller blocks for its reply or credit before issuing more"
)

func fingerprint(seed int64, s Settings) Fingerprint {
	f := Fingerprint{
		Commit: "nogit", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Kernel: firstLine("/proc/sys/kernel/osrelease"),
		Link: linkNote, Loop: loopNote, Seed: seed, Settings: s,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		f.Dirty = err != nil || len(bytes.TrimSpace(st)) > 0
	}
	return f
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Metric is one (metric, workload) cell of a result file.
type Metric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Value is the median over Repeats; Q1, Q3 and Spread (their
	// distance as a share of the median) say how far single repeats
	// scatter within the run. AASpread is the measured spread of Value
	// itself between runs of unchanged code (see aa.go), stored when
	// the run's settings are those it was measured at; 0 says no
	// measurement applies, and compare then makes no call.
	Value    float64   `json:"value"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	AASpread float64   `json:"aa_spread,omitempty"`
	Repeats  []float64 `json:"repeats"`
	// Samples is how many timings (or, for counters, events) stand
	// behind Value across all repeats; Note qualifies the figure.
	Samples int    `json:"samples"`
	Note    string `json:"note,omitempty"`
}

func newMetric(def metricDef, repeats []float64, samples int, note string) *Metric {
	q1, q3 := stats.Quartiles(repeats)
	return &Metric{
		Unit: def.Unit, Better: def.Better, Bound: def.Bound,
		Value: stats.Median(repeats), Q1: q1, Q3: q3, Spread: stats.Spread(repeats),
		Repeats: repeats, Samples: samples, Note: note,
	}
}

// WorkloadResult is everything measured on one workload.
type WorkloadResult struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	MBPerS    float64 `json:"mb_per_s"`
	ByteBase  string  `json:"byte_base"`
	// RankPIDs lists, per repeat, the PID each rank reported; DriverPID
	// is this process. Process workloads show distinct PIDs.
	RankPIDs  [][]int `json:"rank_pids"`
	DriverPID int     `json:"driver_pid"`
	// RankEnv is what the workload adds to its rank processes'
	// environment.
	RankEnv []string           `json:"rank_env,omitempty"`
	Misses  []string           `json:"misses,omitempty"` // output checks that failed
	Metrics map[string]*Metric `json:"metrics"`
}

// Result is a result file.
type Result struct {
	Fingerprint Fingerprint      `json:"fingerprint"`
	Workloads   []WorkloadResult `json:"workloads"`
}

func (r *Result) workload(name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in result file", path)
	}
	return &r, nil
}

// TraceFile is what a traced run writes beside its result file.
type TraceFile struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	// Spans are the first complete spans each goroutine of each rank
	// recorded in the traced repeat, with times in ns since that rank's
	// own epoch; every span, kept or not, is in the summaries.
	Workloads []WorkloadTrace `json:"workloads"`
}

// WorkloadTrace is one workload's part of a trace file.
type WorkloadTrace struct {
	Name      string                              `json:"name"`
	Summaries map[string]map[string]stats.Summary `json:"span_summaries_us"` // "rank N" → span → summary
	Spans     []rank.Span                         `json:"spans"`
}

// print writes every metric of w by name with its unit and the sample
// counts behind it, in registry order.
func (w *WorkloadResult) print(out io.Writer, defs []metricDef) {
	for _, d := range defs {
		m := w.Metrics[d.Name]
		if m == nil {
			continue
		}
		fmt.Fprintf(out, "%-26s %-32s %14.6g %-5s", w.Name, d.Name, m.Value, m.Unit)
		if len(m.Repeats) > 1 {
			fmt.Fprintf(out, " median of %d repeats, q1 %.6g q3 %.6g, spread %.1f%%;", len(m.Repeats), m.Q1, m.Q3, 100*m.Spread)
		}
		fmt.Fprintf(out, " n=%d", m.Samples)
		if m.Note != "" {
			fmt.Fprintf(out, " (%s)", m.Note)
		}
		fmt.Fprintln(out)
	}
}
